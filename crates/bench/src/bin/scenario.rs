//! The one experiment driver: runs declarative scenario files through the
//! streaming session API.
//!
//! Replaces the old per-figure binaries (`fig3`, `fig4`, `sweep`, `forks`,
//! `attacks`, `overhead`): every experiment is a JSON [`Scenario`] under
//! `scenarios/`, and this binary loads, validates and runs it — with live
//! progress, a machine-readable JSONL event stream, and adaptive stopping
//! on top of the [`bcbpt_core::ScenarioSession`] API.
//!
//! Usage:
//!
//! ```text
//! scenario run <file.json|name>... [options]   # run scenario files or built-ins
//! scenario quick <name> [options]              # run a built-in at CI scale
//! scenario list                                # list built-ins and their files
//! scenario export <dir>                        # write built-ins as JSON files
//! scenario parse <outcome.json>                # check an outcome file parses
//! scenario events <events.jsonl>               # check a JSONL event stream
//! scenario shard run <file.json|name> --shard i/N --out part-i.json
//!                                              # execute one shard of a campaign
//! scenario shard merge <part.json>...          # merge shard parts (in shard order)
//! scenario shard coordinate <file.json|name> --shards N [--addr host:port]
//!                                              # serve the adaptive-stop coordinator
//! scenario serve [--addr host:port] [--spool dir] [--workers n]
//!                                              # run the campaign service (bcbpt-serve)
//! scenario submit <file.json|name> [--wait]    # submit to a running service
//!
//! options:
//!   --quick             shrink to CI scale (implied by `quick`)
//!   --json              print the ScenarioOutcome as JSON, not rendered text
//!   --progress          live per-cell run counts on stderr
//!   --jsonl <path>      write one serialized RunEvent per line to <path>
//!                       (written as <path>.tmp, renamed on completion)
//!   --stop-ci <w>       stop each cell once the Δt mean is known to ±w
//!                       (relative, 95% CI) instead of burning all runs
//!   --threads <n>       worker threads (output is identical for any value,
//!                       except under a wall-clock stop rule)
//!   --shard i/N         which shard of how many (shard run only)
//!   --out <path>        where to write the shard part (shard run only)
//!   --checkpoint <path> append digest-sealed checkpoint records of the folded
//!                       prefix to <path> as the shard runs (shard run only)
//!   --checkpoint-every <n>  folds per checkpoint record (default 1)
//!   --resume            continue from --checkpoint's file if it exists
//!   --inject-fault <json>   arm a deterministic FaultPlan, e.g.
//!                       '{"DieAfterRuns":{"n":3}}' (fault-injection builds)
//!   --salvage           shard merge only: quarantine bad parts, merge the
//!                       rest, print a repair plan if incomplete
//!   --coordinate <addr> shard run only: submit folded prefixes to the
//!                       adaptive-stop coordinator at <addr> and truncate
//!                       to its broadcast stop decision
//!   --cadence <n>       shard coordinate only: evaluate the stop rule
//!                       every <n> global run indices (default 1)
//! ```

use bcbpt_cluster::ProtocolRegistry;
use bcbpt_core::{
    merge_shards, run_shard_with, salvage_merge, Checkpoint, CheckpointSink, FaultPlan, Journal,
    LocalCoordinator, PartialOutcome, RunEvent, Scenario, ScenarioOutcome, ShardRunOptions,
    ShardSpec, StopCoordinator, StopRule, WarmCache,
};
use bcbpt_serve::{client, CoordClient, CoordServer, JournalFile, ServeConfig, Server};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

#[cfg(feature = "fault-injection")]
use bcbpt_core::fault;

/// Flags shared by `run`, `quick`, the `shard` subcommands and the
/// service subcommands (`serve`, `submit`).
#[derive(Default)]
struct Options {
    quick: bool,
    json: bool,
    progress: bool,
    jsonl: Option<String>,
    stop_ci: Option<f64>,
    threads: Option<usize>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    shard: Option<String>,
    out: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: bool,
    inject_fault: Option<String>,
    salvage: bool,
    coordinate: Option<String>,
    cadence: Option<usize>,
    addr: Option<String>,
    spool: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    warm: Option<usize>,
    shards: Option<usize>,
    wait: bool,
}

impl Options {
    /// Fails when a flag that only another subcommand honours was given —
    /// a silently ignored flag makes the driver do something expensively
    /// different from what the operator asked for (e.g. `scenario run
    /// --shard 0/2` without the `shard` word would run the whole
    /// campaign).
    fn reject_unused(&self, command: &str, unused: &[(&str, bool)]) -> Result<(), String> {
        for (flag, given) in unused {
            if *given {
                return Err(usage(&format!(
                    "{flag} does not apply to `scenario {command}`"
                )));
            }
        }
        Ok(())
    }

    /// The observability output flags, honoured by `run`, `quick` and
    /// `shard run` (the subcommands that execute campaigns in-process)
    /// and rejected everywhere else.
    fn obs_flags(&self) -> [(&'static str, bool); 2] {
        [
            ("--metrics-out", self.metrics_out.is_some()),
            ("--trace-out", self.trace_out.is_some()),
        ]
    }

    /// The service flags, rejected by everything except `serve`/`submit`.
    fn service_flags(&self) -> [(&'static str, bool); 7] {
        [
            ("--addr", self.addr.is_some()),
            ("--spool", self.spool.is_some()),
            ("--workers", self.workers.is_some()),
            ("--queue", self.queue.is_some()),
            ("--warm", self.warm.is_some()),
            ("--shards", self.shards.is_some()),
            ("--wait", self.wait),
        ]
    }

    /// `run`/`quick` must not swallow the sharding/recovery/service flags.
    fn reject_shard_flags(&self, command: &str) -> Result<(), String> {
        self.reject_unused(
            command,
            &[
                ("--shard", self.shard.is_some()),
                ("--out", self.out.is_some()),
                ("--checkpoint", self.checkpoint.is_some()),
                ("--checkpoint-every", self.checkpoint_every.is_some()),
                ("--resume", self.resume),
                ("--inject-fault", self.inject_fault.is_some()),
                ("--salvage", self.salvage),
                ("--coordinate", self.coordinate.is_some()),
                ("--cadence", self.cadence.is_some()),
            ],
        )?;
        self.reject_unused(command, &self.service_flags())
    }

    /// The inspection subcommands (`list`, `export`, `parse`, `events`)
    /// take no flags at all.
    fn reject_every_flag(&self, command: &str) -> Result<(), String> {
        self.reject_unused(command, &self.obs_flags())?;
        self.reject_unused(
            command,
            &[
                ("--quick", self.quick),
                ("--json", self.json),
                ("--progress", self.progress),
                ("--jsonl", self.jsonl.is_some()),
                ("--stop-ci", self.stop_ci.is_some()),
                ("--threads", self.threads.is_some()),
                ("--shard", self.shard.is_some()),
                ("--out", self.out.is_some()),
                ("--checkpoint", self.checkpoint.is_some()),
                ("--checkpoint-every", self.checkpoint_every.is_some()),
                ("--resume", self.resume),
                ("--inject-fault", self.inject_fault.is_some()),
                ("--salvage", self.salvage),
                ("--coordinate", self.coordinate.is_some()),
                ("--cadence", self.cadence.is_some()),
            ],
        )?;
        self.reject_unused(command, &self.service_flags())
    }
}

fn main() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options {
        quick: take_flag(&mut args, "--quick"),
        json: take_flag(&mut args, "--json"),
        progress: take_flag(&mut args, "--progress"),
        jsonl: take_value(&mut args, "--jsonl")?,
        stop_ci: take_value(&mut args, "--stop-ci")?
            .map(|w| {
                w.parse::<f64>()
                    .map_err(|e| format!("--stop-ci {w:?}: {e}"))
            })
            .transpose()?,
        threads: take_value(&mut args, "--threads")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--threads {n:?}: {e}"))
            })
            .transpose()?,
        metrics_out: take_value(&mut args, "--metrics-out")?,
        trace_out: take_value(&mut args, "--trace-out")?,
        shard: take_value(&mut args, "--shard")?,
        out: take_value(&mut args, "--out")?,
        checkpoint: take_value(&mut args, "--checkpoint")?,
        checkpoint_every: take_value(&mut args, "--checkpoint-every")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--checkpoint-every {n:?}: {e}"))
            })
            .transpose()?,
        resume: take_flag(&mut args, "--resume"),
        inject_fault: take_value(&mut args, "--inject-fault")?,
        salvage: take_flag(&mut args, "--salvage"),
        coordinate: take_value(&mut args, "--coordinate")?,
        cadence: take_value(&mut args, "--cadence")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--cadence {n:?}: {e}"))
            })
            .transpose()?,
        addr: take_value(&mut args, "--addr")?,
        spool: take_value(&mut args, "--spool")?,
        workers: take_value(&mut args, "--workers")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--workers {n:?}: {e}"))
            })
            .transpose()?,
        queue: take_value(&mut args, "--queue")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--queue {n:?}: {e}"))
            })
            .transpose()?,
        warm: take_value(&mut args, "--warm")?
            .map(|n| n.parse::<usize>().map_err(|e| format!("--warm {n:?}: {e}")))
            .transpose()?,
        shards: take_value(&mut args, "--shards")?
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|e| format!("--shards {n:?}: {e}"))
            })
            .transpose()?,
        wait: take_flag(&mut args, "--wait"),
    };
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            options.reject_shard_flags(cmd)?;
            run_all(rest, options)
        }
        Some((cmd, rest)) if cmd == "quick" => match rest {
            // run_all attaches the scenario name to any error.
            [_name] => {
                options.reject_shard_flags(cmd)?;
                run_all(
                    rest,
                    Options {
                        quick: true,
                        ..options
                    },
                )
            }
            _ => Err(usage("quick takes exactly one built-in scenario name")),
        },
        Some((cmd, rest)) if cmd == "list" && rest.is_empty() => {
            options.reject_every_flag(cmd)?;
            list();
            Ok(())
        }
        Some((cmd, rest)) if cmd == "export" => {
            options.reject_every_flag(cmd)?;
            match rest {
                [dir] => export(dir),
                _ => Err(usage("export takes exactly one target directory")),
            }
        }
        Some((cmd, rest)) if cmd == "parse" => {
            options.reject_every_flag(cmd)?;
            match rest {
                [path] => parse_outcome(path),
                _ => Err(usage("parse takes exactly one outcome file")),
            }
        }
        Some((cmd, rest)) if cmd == "events" => {
            options.reject_every_flag(cmd)?;
            match rest {
                [path] => check_events(path),
                _ => Err(usage("events takes exactly one JSONL file")),
            }
        }
        Some((cmd, rest)) if cmd == "serve" && rest.is_empty() => serve(&options),
        Some((cmd, rest)) if cmd == "submit" => match rest {
            [spec] => submit(spec, &options),
            _ => Err(usage(
                "submit takes exactly one scenario file or built-in name",
            )),
        },
        Some((cmd, rest)) if cmd == "shard" => match rest.split_first() {
            Some((sub, rest)) if sub == "run" => match rest {
                [spec] => shard_run(spec, &options),
                _ => Err(usage(
                    "shard run takes exactly one scenario file or built-in name",
                )),
            },
            Some((sub, rest)) if sub == "merge" && !rest.is_empty() => shard_merge(rest, &options),
            Some((sub, rest)) if sub == "coordinate" => match rest {
                [spec] => shard_coordinate(spec, &options),
                _ => Err(usage(
                    "shard coordinate takes exactly one scenario file or built-in name",
                )),
            },
            _ => Err(usage(
                "shard takes `run <file|name> --shard i/N --out <path>`, `merge <part>...` \
                 or `coordinate <file|name> --shards N`",
            )),
        },
        _ => Err(usage("missing or unknown subcommand")),
    }
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\n\
         usage: scenario run <file.json|name>... [--quick] [--json] [--progress]\n\
         \x20                [--jsonl <path>] [--stop-ci <rel_width>] [--threads <n>]\n\
         \x20                [--metrics-out <path>] [--trace-out <path>]\n\
         \x20      scenario quick <name> [same options]\n\
         \x20      scenario list\n\
         \x20      scenario export <dir>\n\
         \x20      scenario parse <outcome.json>\n\
         \x20      scenario events <events.jsonl>\n\
         \x20      scenario shard run <file.json|name> --shard i/N --out part-i.json\n\
         \x20                [--quick] [--threads <n>] [--checkpoint <path>]\n\
         \x20                [--checkpoint-every <n>] [--resume] [--inject-fault <json>]\n\
         \x20                [--coordinate host:port] [--stop-ci <rel_width>]\n\
         \x20                [--metrics-out <path>] [--trace-out <path>]\n\
         \x20      scenario shard merge <part.json>... [--json] [--salvage]\n\
         \x20      scenario shard coordinate <file.json|name> --shards <n>\n\
         \x20                [--addr host:port] [--cadence <n>] [--quick]\n\
         \x20                [--stop-ci <rel_width>]\n\
         \x20      scenario serve [--addr host:port] [--spool <dir>] [--workers <n>]\n\
         \x20                [--queue <n>] [--warm <n>] [--checkpoint-every <n>]\n\
         \x20      scenario submit <file.json|name> [--addr host:port] [--quick]\n\
         \x20                [--shards <n>] [--wait] [--json]"
    )
}

/// Bounded retry with backoff for transient I/O failures: the initial
/// attempt plus three retries, sleeping 10/50/250 ms before each retry.
/// The final failure's error is returned verbatim.
fn with_io_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut backoff_ms = [10u64, 50, 250].into_iter();
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) => match backoff_ms.next() {
                Some(ms) => {
                    bcbpt_obs::debug!("transient I/O failure ({e}); retrying in {ms} ms");
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                None => return Err(e),
            },
        }
    }
}

/// Arms the observability outputs a campaign-executing subcommand asked
/// for: pre-registers every metric family (so `--metrics-out` lists the
/// full set even for families the run never touches) and starts span
/// recording for `--trace-out`.
fn obs_begin(options: &Options) {
    if options.metrics_out.is_some() {
        bcbpt_core::obs::register_metrics();
    }
    if options.trace_out.is_some() {
        bcbpt_obs::install_trace();
    }
}

/// Writes the outputs [`obs_begin`] armed: the metrics snapshot as JSON
/// and the recorded spans as a Chrome-trace document (`chrome://tracing`
/// / Perfetto). Called after the campaign completed — worker threads are
/// joined by then, so every thread-local span buffer has flushed.
fn obs_finish(options: &Options) -> Result<(), String> {
    if let Some(path) = options.trace_out.as_deref() {
        let spans = bcbpt_obs::take_trace();
        atomic_write(path, bcbpt_obs::chrome_trace_json(&spans).as_bytes())?;
        bcbpt_obs::info!("wrote {} span(s) to {path}", spans.len());
    }
    if let Some(path) = options.metrics_out.as_deref() {
        let snapshot = bcbpt_obs::global().snapshot();
        let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
        atomic_write(path, json.as_bytes())?;
        bcbpt_obs::info!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// Durable file write: temp file next to the target, then atomic rename —
/// a crash mid-write leaves the old file (or nothing), never a torn one.
/// Both steps ride the bounded retry.
fn atomic_write(path: &str, contents: &[u8]) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    with_io_retry(|| fs::write(&tmp, contents)).map_err(|e| format!("{tmp}: {e}"))?;
    with_io_retry(|| fs::rename(&tmp, path)).map_err(|e| format!("{path}: {e}"))?;
    Ok(())
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Removes `flag <value>` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(usage(&format!("{flag} needs a value")));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Loads a scenario from a file path, or resolves a built-in name.
fn load(spec: &str) -> Result<Scenario, String> {
    if std::path::Path::new(spec).is_file() {
        let text = fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        return Scenario::from_json(&text).map_err(|e| format!("{spec}: {e}"));
    }
    Scenario::builtin(spec).ok_or_else(|| {
        format!(
            "{spec:?} is neither a scenario file nor a built-in name (known: {})",
            Scenario::builtin_names().join(", ")
        )
    })
}

fn run_all(specs: &[String], options: Options) -> Result<(), String> {
    if specs.is_empty() {
        return Err(usage(
            "run needs at least one scenario file or built-in name",
        ));
    }
    let jsonl = options.jsonl.as_deref().map(JsonlSink::open).transpose()?;
    obs_begin(&options);
    for spec in specs {
        let mut scenario = load(spec)?;
        if options.quick {
            scenario = scenario.quick_scaled();
        }
        execute(&scenario, &options, jsonl.clone()).map_err(|e| format!("{spec}: {e}"))?;
        if let Some(error) = jsonl.as_ref().and_then(|sink| sink.take_error()) {
            return Err(format!("--jsonl stream truncated: {error}"));
        }
    }
    if let Some(sink) = jsonl {
        sink.finalize()?;
    }
    obs_finish(&options)
}

/// Live progress observer: one stderr line per cell, updated in place as
/// runs fold.
fn progress_observer() -> impl FnMut(&RunEvent) + Send {
    move |event: &RunEvent| match event {
        RunEvent::CellStarted {
            label,
            planned_runs,
            ..
        } => {
            eprint!("  {label}: 0/{planned_runs} runs");
        }
        RunEvent::RunCompleted {
            run_index,
            run_stats,
            ..
        } => {
            eprint!(
                "\r  run {}: {} runs folded, {} samples, mean {:.2} ms (sd {:.2})      ",
                run_index,
                run_stats.measured_runs,
                run_stats.pooled_samples,
                run_stats.pooled_mean_ms,
                run_stats.pooled_std_dev_ms,
            );
        }
        RunEvent::RunFailed {
            run_index, payload, ..
        } => {
            eprintln!("\r  run {run_index}: PANICKED — {payload}");
        }
        RunEvent::CellCompleted {
            report,
            runs_used,
            stopped_early,
            ..
        } => {
            eprintln!(
                "\r  {}: done after {runs_used} run(s){}                      ",
                report.label,
                if *stopped_early {
                    " — stop rule fired early"
                } else {
                    ""
                }
            );
        }
        RunEvent::CellFailed { label, error, .. } => {
            eprintln!("\r  {label}: FAILED — {error}");
        }
        RunEvent::ScenarioCompleted {
            scenario,
            cells,
            failed_cells,
        } => {
            eprintln!("  {scenario}: {cells} cell(s), {failed_cells} failed");
        }
    }
}

/// The `--jsonl` sink, opened once per invocation so a multi-scenario
/// `run` appends every scenario's events to one stream instead of
/// truncating the file per scenario. Writes land in `<path>.tmp`; only a
/// completed run renames the stream to its requested name
/// ([`finalize`](Self::finalize)) — a crashed or truncated run can never
/// leave a partial file where a consumer expects a complete one.
struct JsonlSink {
    writer: Mutex<std::io::BufWriter<fs::File>>,
    path: String,
    tmp: String,
    /// First write/flush error. Observers run inside the campaign's fold
    /// lock, so an I/O failure (disk full, dead filesystem) must not
    /// panic there: the sink records it, stops writing, and the driver
    /// turns it into a normal `Err` after the scenario.
    error: Mutex<Option<String>>,
}

impl JsonlSink {
    fn open(path: &str) -> Result<Arc<Self>, String> {
        let tmp = format!("{path}.tmp");
        let file = with_io_retry(|| fs::File::create(&tmp)).map_err(|e| format!("{tmp}: {e}"))?;
        Ok(Arc::new(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
            path: path.to_string(),
            tmp,
            error: Mutex::new(None),
        }))
    }

    fn record_error(&self, e: &std::io::Error) {
        let mut slot = self.error.lock().expect("jsonl error lock");
        if slot.is_none() {
            *slot = Some(format!("{}: {e}", self.tmp));
        }
    }

    /// The first write/flush error, if any (the stream is then truncated).
    fn take_error(&self) -> Option<String> {
        self.error.lock().expect("jsonl error lock").take()
    }

    /// Flushes and atomically renames `<path>.tmp` to the requested path —
    /// called once, after every scenario completed cleanly.
    fn finalize(&self) -> Result<(), String> {
        with_io_retry(|| self.writer.lock().expect("jsonl writer lock").flush())
            .map_err(|e| format!("{}: {e}", self.tmp))?;
        with_io_retry(|| fs::rename(&self.tmp, &self.path))
            .map_err(|e| format!("{}: {e}", self.path))?;
        Ok(())
    }
}

/// JSONL observer: one serialized event per line, flushed per line so a
/// reader (or a post-crash autopsy) sees every event the session folded.
fn jsonl_observer(sink: Arc<JsonlSink>) -> impl FnMut(&RunEvent) + Send {
    move |event: &RunEvent| {
        if sink.error.lock().expect("jsonl error lock").is_some() {
            return;
        }
        let line = serde_json::to_string(event).expect("event serializes");
        let mut writer = sink.writer.lock().expect("jsonl writer lock");
        let result = writeln!(writer, "{line}").and_then(|()| with_io_retry(|| writer.flush()));
        drop(writer);
        if let Err(e) = result {
            sink.record_error(&e);
        }
    }
}

fn execute(
    scenario: &Scenario,
    options: &Options,
    jsonl: Option<Arc<JsonlSink>>,
) -> Result<(), String> {
    let stop = match options.stop_ci {
        Some(rel_width) => StopRule::CiHalfWidth {
            level: 0.95,
            rel_width,
            min_runs: 2,
        },
        None => scenario.stop.unwrap_or_default(),
    };
    eprintln!(
        "scenario {}: {} workload, {} cell(s), {} nodes, {} runs ({}), seed {:#x}",
        scenario.name,
        scenario.workload.kind(),
        scenario.cells().len(),
        scenario.net.num_nodes,
        scenario.runs,
        stop.label(),
        scenario.seed,
    );
    let mut session = scenario.session().with_stop_rule(stop);
    if let Some(threads) = options.threads {
        session = session.with_threads(threads);
    }
    if options.progress {
        session = session.observe_fn(progress_observer());
    }
    if let Some(sink) = jsonl {
        session = session.observe_fn(jsonl_observer(sink));
    }
    let outcome = session.block()?;
    if options.json {
        println!("{}", outcome.to_json());
    } else {
        println!("{}", outcome.render());
    }
    report_degenerate_cells(&outcome)
}

/// Degenerate cells (run-time failures, sample-free campaigns) are
/// recorded in the outcome so surviving cells still print, but the
/// driver must not report success for them.
fn report_degenerate_cells(outcome: &ScenarioOutcome) -> Result<(), String> {
    let failed: Vec<String> = outcome
        .cell_errors()
        .into_iter()
        .map(|(label, error)| format!("{label}: {error}"))
        .collect();
    if !failed.is_empty() {
        return Err(format!(
            "{} of {} cell(s) degenerate — {}",
            failed.len(),
            outcome.cells.len(),
            failed.join("; ")
        ));
    }
    Ok(())
}

/// `shard run <file|name> --shard i/N --out <path>`: execute one shard of
/// a campaign and write its `PartialOutcome` as JSON — checkpointing the
/// folded prefix to `--checkpoint` as it goes, resuming from it with
/// `--resume`, and (in fault-injection builds) failing on purpose under
/// `--inject-fault`.
fn shard_run(spec: &str, options: &Options) -> Result<(), String> {
    let shard = options
        .shard
        .as_deref()
        .ok_or_else(|| usage("shard run needs --shard i/N"))?;
    let shard = ShardSpec::parse(shard)?;
    let out = options
        .out
        .as_deref()
        .ok_or_else(|| usage("shard run needs --out <part.json>"))?;
    if options.stop_ci.is_some() && shard.count > 1 && options.coordinate.is_none() {
        return Err(usage(
            "--stop-ci needs --coordinate <addr> when the run is split over several shards \
             (one shard of many never sees the folded prefix an adaptive stop rule decides \
             on — point the fleet at a `scenario shard coordinate` endpoint)",
        ));
    }
    options.reject_unused(
        "shard run",
        &[
            ("--json", options.json),
            ("--progress", options.progress),
            ("--jsonl", options.jsonl.is_some()),
            ("--salvage", options.salvage),
            ("--cadence", options.cadence.is_some()),
        ],
    )?;
    if options.checkpoint.is_none() && (options.resume || options.checkpoint_every.is_some()) {
        return Err(usage(
            "--resume and --checkpoint-every need --checkpoint <path>",
        ));
    }
    let fault = options
        .inject_fault
        .as_deref()
        .map(FaultPlan::from_json)
        .transpose()?;
    if fault.is_some() && !cfg!(feature = "fault-injection") {
        return Err(
            "--inject-fault needs a binary built with the `fault-injection` feature (it is \
             on by default; this one was built with --no-default-features)"
                .to_string(),
        );
    }
    #[cfg(feature = "fault-injection")]
    let _fault_guard = fault.map(|plan| {
        eprintln!("fault injection armed: {}", plan.label());
        fault::arm(plan)
    });
    #[cfg(not(feature = "fault-injection"))]
    let _ = fault;
    let mut scenario = load(spec)?;
    if options.quick {
        scenario = scenario.quick_scaled();
    }
    // `--stop-ci` mutates the scenario's stop rule *before* the run, so
    // the content digest the coordinator checks covers it — every shard
    // and the coordinator must be launched with the same override.
    if let Some(rel_width) = options.stop_ci {
        scenario.stop = Some(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width,
            min_runs: 2,
        });
    }
    let coordinator = options.coordinate.as_deref().map(CoordClient::new);
    obs_begin(options);
    let threads = options
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // Resume is crash-idempotent: a missing checkpoint file (died before
    // the first write, or a fresh start launched with the same command
    // line) just starts from the plan's first run, and a journal with a
    // torn tail continues from its last whole record.
    let resume = match (options.resume, options.checkpoint.as_deref()) {
        (true, Some(path)) => match fs::read(path) {
            Ok(bytes) => {
                let journal = Journal::read(&bytes).map_err(|e| format!("{path}: {e}"))?;
                bcbpt_obs::info!("resuming shard {shard} of {} from {path}", scenario.name);
                Some(journal)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                bcbpt_obs::warn!("--resume: no checkpoint at {path} yet — starting fresh");
                None
            }
            Err(e) => return Err(format!("{path}: {e}")),
        },
        _ => None,
    };
    // The journal continues behind the resumed prefix, or starts over.
    let valid_len = resume.as_ref().map_or(0, |journal| journal.valid_len);
    let mut journal_file = options
        .checkpoint
        .as_deref()
        .map(|path| {
            with_io_retry(|| JournalFile::open(Path::new(path), valid_len as u64))
                .map(|file| (path, file))
                .map_err(|e| format!("{path}: {e}"))
        })
        .transpose()?;
    let mut sink_fn;
    let sink: Option<&mut CheckpointSink<'_>> = match journal_file.as_mut() {
        None => None,
        Some((path, file)) => {
            sink_fn = move |record: &Checkpoint| -> Result<(), String> {
                let line = record.to_json();
                #[cfg(feature = "fault-injection")]
                if fault::armed() == Some(FaultPlan::TornCheckpoint) {
                    // Tear the append on purpose: half the record's bytes,
                    // then die — the crash a journal reader must survive.
                    let _ = fs::OpenOptions::new()
                        .append(true)
                        .open(&**path)
                        .and_then(|mut file| file.write_all(&line.as_bytes()[..line.len() / 2]));
                    fault::hard_exit("TornCheckpoint");
                }
                with_io_retry(|| file.append(&line)).map_err(|e| format!("{path}: {e}"))
            };
            Some(&mut sink_fn)
        }
    };
    // One warm-snapshot cache for the whole process: sweep cells sharing
    // a warm recipe (same net/protocol/seed/warmup) warm once and clone
    // thereafter — the part stays byte-identical either way.
    let warm = WarmCache::new(8);
    let part = run_shard_with(
        &scenario,
        shard,
        &ProtocolRegistry::builtins(),
        ShardRunOptions {
            threads: Some(threads),
            resume,
            checkpoint_every: options.checkpoint_every.unwrap_or(1),
            sink,
            warm_cache: Some(&warm),
            coordinator: coordinator
                .as_ref()
                .map(|client| client as &dyn StopCoordinator),
            ..ShardRunOptions::default()
        },
    )
    .map_err(|e| format!("{spec}: {e}"))?;
    if warm.hits() > 0 {
        bcbpt_obs::info!(
            "warm cache: {} re-warm(s) skipped ({} built)",
            warm.hits(),
            warm.misses()
        );
    }
    let mut bytes = format!("{}\n", part.to_json()).into_bytes();
    #[cfg(feature = "fault-injection")]
    if fault::corrupt_output(&mut bytes) {
        eprintln!("fault injection: flipped one byte of the serialized part");
    }
    atomic_write(out, &bytes)?;
    if let Some(path) = options.checkpoint.as_deref() {
        // The part is durable; the checkpoint has served its purpose.
        let _ = fs::remove_file(path);
    }
    // One machine-grepable summary, the same shape for every workload
    // family (all of them shard now — there is no deferred case):
    // `stop=` carries the coordinator's per-cell stop index (`none` when
    // a cell ran its whole budget or the run was uncoordinated).
    let stops = part.cell_stop_indices();
    let stop = if stops.iter().all(Option::is_none) {
        "none".to_string()
    } else {
        stops
            .iter()
            .map(|s| s.map_or_else(|| "none".to_string(), |s| s.to_string()))
            .collect::<Vec<_>>()
            .join(",")
    };
    eprintln!(
        "shard-run scenario={} shard={shard} cells={} runs={}..{} used={} stop={stop} out={out}",
        scenario.name,
        part.cells.len(),
        part.plan.run_start,
        part.plan.run_end,
        part.runs_used(),
    );
    obs_finish(options)
}

/// `shard merge <part.json>...`: merge shard parts — passed in ascending
/// shard order (`part-0.json part-1.json …`; a sorted shell glob works up
/// to 10 shards) — and print the merged `ScenarioOutcome` exactly like
/// `scenario run` would. With `--salvage`, unreadable/tampered/mismatched
/// parts are quarantined instead of failing the merge; an incomplete
/// surviving set prints a machine-readable repair plan and exits nonzero.
fn shard_merge(paths: &[String], options: &Options) -> Result<(), String> {
    options.reject_unused("shard merge", &options.obs_flags())?;
    options.reject_unused(
        "shard merge",
        &[
            ("--quick", options.quick),
            ("--progress", options.progress),
            ("--jsonl", options.jsonl.is_some()),
            ("--stop-ci", options.stop_ci.is_some()),
            ("--threads", options.threads.is_some()),
            ("--shard", options.shard.is_some()),
            ("--out", options.out.is_some()),
            ("--checkpoint", options.checkpoint.is_some()),
            ("--checkpoint-every", options.checkpoint_every.is_some()),
            ("--resume", options.resume),
            ("--inject-fault", options.inject_fault.is_some()),
        ],
    )?;
    if options.salvage {
        return shard_salvage(paths, options);
    }
    let mut parts = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parts.push(PartialOutcome::from_json(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let part_count = parts.len();
    let outcome = merge_shards(parts)?;
    eprintln!(
        "merged {part_count} shard(s) of {}: {} cell(s)",
        outcome.scenario,
        outcome.cells.len()
    );
    if options.json {
        println!("{}", outcome.to_json());
    } else {
        println!("{}", outcome.render());
    }
    report_degenerate_cells(&outcome)
}

/// `shard merge --salvage`: quarantine every part that cannot be trusted,
/// merge the survivors, and either print the merged outcome (complete
/// set) or a `RepairPlan` JSON naming the exact re-runs (incomplete set,
/// nonzero exit).
fn shard_salvage(paths: &[String], options: &Options) -> Result<(), String> {
    let sources: Vec<(String, Result<PartialOutcome, String>)> = paths
        .iter()
        .map(|path| {
            let result = fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| PartialOutcome::from_json(&text));
            (path.clone(), result)
        })
        .collect();
    let report = salvage_merge(sources, "<scenario.json>")?;
    for q in &report.quarantined {
        eprintln!(
            "quarantined {}{}: {}",
            q.source,
            q.shard_index
                .map_or_else(String::new, |i| format!(" (claims shard {i})")),
            q.reason
        );
    }
    match (report.outcome, report.repair) {
        (Some(outcome), _) => {
            eprintln!(
                "salvage: merged {} of {} part file(s) for {} ({} quarantined)",
                paths.len() - report.quarantined.len(),
                paths.len(),
                outcome.scenario,
                report.quarantined.len()
            );
            if options.json {
                println!("{}", outcome.to_json());
            } else {
                println!("{}", outcome.render());
            }
            report_degenerate_cells(&outcome)
        }
        (None, Some(repair)) => {
            println!("{}", repair.to_json());
            Err(format!(
                "salvage: {} shard(s) have no valid part ({} quarantined) — re-run the \
                 commands in the repair plan above, then merge again",
                repair.missing_shards.len(),
                repair.quarantined.len()
            ))
        }
        (None, None) => unreachable!("salvage yields an outcome or a repair plan"),
    }
}

/// `shard coordinate <file|name> --shards N`: serve the cross-shard
/// adaptive-stop coordinator for one scenario run. The fleet's
/// `scenario shard run --coordinate <addr>` processes submit their folded
/// prefixes here; the subcommand exits once every cell is decided (or
/// abandoned), printing a machine-grepable summary of the stop indices
/// and the runs the early stops saved.
///
/// Launch parameters must match the fleet exactly — same scenario file,
/// same `--quick`/`--stop-ci`, same shard count — or the shards refuse to
/// coordinate (the config is checked by content digest).
fn shard_coordinate(spec: &str, options: &Options) -> Result<(), String> {
    let shards = options
        .shards
        .ok_or_else(|| usage("shard coordinate needs --shards <n>"))?;
    options.reject_unused("shard coordinate", &options.obs_flags())?;
    options.reject_unused(
        "shard coordinate",
        &[
            ("--json", options.json),
            ("--progress", options.progress),
            ("--jsonl", options.jsonl.is_some()),
            ("--threads", options.threads.is_some()),
            ("--shard", options.shard.is_some()),
            ("--out", options.out.is_some()),
            ("--checkpoint", options.checkpoint.is_some()),
            ("--checkpoint-every", options.checkpoint_every.is_some()),
            ("--resume", options.resume),
            ("--inject-fault", options.inject_fault.is_some()),
            ("--salvage", options.salvage),
            ("--coordinate", options.coordinate.is_some()),
            ("--spool", options.spool.is_some()),
            ("--workers", options.workers.is_some()),
            ("--queue", options.queue.is_some()),
            ("--warm", options.warm.is_some()),
            ("--wait", options.wait),
        ],
    )?;
    let mut scenario = load(spec)?;
    if options.quick {
        scenario = scenario.quick_scaled();
    }
    // The identical override order as `shard run` — the digests must
    // agree across the fleet.
    if let Some(rel_width) = options.stop_ci {
        scenario.stop = Some(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width,
            min_runs: 2,
        });
    }
    let cadence = options.cadence.unwrap_or(1);
    let coordinator = Arc::new(
        LocalCoordinator::new(&scenario, shards, cadence).map_err(|e| format!("{spec}: {e}"))?,
    );
    let addr = options
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let server = CoordServer::start(&addr, Arc::clone(&coordinator))?;
    eprintln!(
        "coordinator on http://{} — scenario {}, {shards} shard(s), cadence {cadence}, rule {}",
        server.local_addr(),
        scenario.name,
        scenario
            .stop
            .expect("constructor validated the rule")
            .label(),
    );
    while !coordinator.is_complete() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // Linger briefly so shards blocked on the last decision fetch it
    // (they poll every 25 ms) before the endpoint disappears.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let stops: Vec<String> = coordinator
        .decisions()
        .iter()
        .map(|decision| match decision {
            Some(decision) => decision
                .stop_at
                .map_or_else(|| "none".to_string(), |s| s.to_string()),
            None => "abandoned".to_string(),
        })
        .collect();
    println!(
        "shard-coordinate scenario={} shards={shards} cadence={cadence} stops={} runs-saved={}",
        scenario.name,
        stops.join(","),
        coordinator.runs_saved(),
    );
    Ok(())
}

/// `scenario serve`: run the campaign service until drained (SIGINT,
/// SIGTERM or `POST /shutdown`). Running shards park at a durable
/// checkpoint on drain; restarting on the same `--spool` resumes them.
fn serve(options: &Options) -> Result<(), String> {
    options.reject_unused("serve", &options.obs_flags())?;
    options.reject_unused(
        "serve",
        &[
            ("--quick", options.quick),
            ("--json", options.json),
            ("--progress", options.progress),
            ("--jsonl", options.jsonl.is_some()),
            ("--stop-ci", options.stop_ci.is_some()),
            ("--threads", options.threads.is_some()),
            ("--shard", options.shard.is_some()),
            ("--shards", options.shards.is_some()),
            ("--out", options.out.is_some()),
            ("--checkpoint", options.checkpoint.is_some()),
            ("--resume", options.resume),
            ("--inject-fault", options.inject_fault.is_some()),
            ("--salvage", options.salvage),
            ("--wait", options.wait),
        ],
    )?;
    let spool = options
        .spool
        .clone()
        .unwrap_or_else(|| "serve-spool".to_string());
    let mut config = ServeConfig::new(&spool);
    if let Some(addr) = &options.addr {
        config.addr = addr.clone();
    }
    if let Some(workers) = options.workers {
        config.workers = workers.max(1);
    }
    if let Some(queue) = options.queue {
        config.queue_capacity = queue.max(1);
    }
    if let Some(warm) = options.warm {
        config.warm_capacity = warm;
    }
    if let Some(every) = options.checkpoint_every {
        config.checkpoint_every = every;
    }
    config.poll_signals = true;
    bcbpt_serve::signals::install();
    let workers = config.workers;
    let server = Server::start(config)?;
    eprintln!(
        "campaign service on http://{} — {} worker(s), spool {spool} \
         (drain with SIGTERM, ctrl-c or POST /shutdown)",
        server.local_addr(),
        workers,
    );
    server.wait()?;
    eprintln!("campaign service drained");
    Ok(())
}

/// `scenario submit <file|name>`: submit a scenario to a running service
/// and print the submit response; with `--wait`, poll the job to
/// completion and print its outcome (`--json` for the raw stored bytes,
/// byte-identical to `scenario run --json`).
fn submit(spec: &str, options: &Options) -> Result<(), String> {
    options.reject_unused("submit", &options.obs_flags())?;
    options.reject_unused(
        "submit",
        &[
            ("--progress", options.progress),
            ("--jsonl", options.jsonl.is_some()),
            ("--stop-ci", options.stop_ci.is_some()),
            ("--threads", options.threads.is_some()),
            ("--shard", options.shard.is_some()),
            ("--out", options.out.is_some()),
            ("--checkpoint", options.checkpoint.is_some()),
            ("--checkpoint-every", options.checkpoint_every.is_some()),
            ("--resume", options.resume),
            ("--inject-fault", options.inject_fault.is_some()),
            ("--salvage", options.salvage),
            ("--spool", options.spool.is_some()),
            ("--workers", options.workers.is_some()),
            ("--queue", options.queue.is_some()),
            ("--warm", options.warm.is_some()),
        ],
    )?;
    let addr = options
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7070".to_string());
    let mut scenario = load(spec)?;
    if options.quick {
        scenario = scenario.quick_scaled();
    }
    let path = match options.shards {
        Some(shards) => format!("/scenarios?shards={shards}"),
        None => "/scenarios".to_string(),
    };
    let response = client::post(&addr, &path, &scenario.to_json())?;
    let body = response.text();
    if !(200..300).contains(&response.status) {
        return Err(format!(
            "submit {spec}: status {} — {body}",
            response.status
        ));
    }
    eprintln!("{}", body.trim_end());
    if !options.wait {
        return Ok(());
    }
    let submitted: serde::Value =
        serde_json::from_str(&body).map_err(|e| format!("submit response: {e}"))?;
    let job = submitted
        .as_map()
        .map(|entries| serde::map_get(entries, "job"))
        .and_then(serde::Value::as_str)
        .ok_or_else(|| format!("submit response has no job id: {body}"))?
        .to_string();
    let status = client::wait_job(&addr, &job, std::time::Duration::from_secs(3600))?;
    let outcome = client::get(&addr, &format!("/jobs/{job}/outcome"))?;
    if outcome.status != 200 {
        return Err(format!("job {job} settled without an outcome: {status}"));
    }
    let text = outcome.text();
    if options.json {
        // The stored bytes end in a newline already; print them verbatim.
        print!("{text}");
    } else {
        let parsed = ScenarioOutcome::from_json(&text)?;
        println!("{}", parsed.render());
    }
    Ok(())
}

fn list() {
    println!("built-in scenarios (scenario quick <name>, full scale in scenarios/<name>.json):");
    for name in Scenario::builtin_names() {
        let scenario = Scenario::builtin(name).expect("listed names resolve");
        let axes = scenario
            .sweep
            .as_ref()
            .map_or_else(|| "single cell".to_string(), |sweep| sweep.describe());
        println!(
            "  {name:<10} {:<15} {:<14} {}",
            scenario.workload.kind(),
            axes,
            Scenario::builtin_description(name).expect("listed names are described"),
        );
    }
}

fn export(dir: &str) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for name in Scenario::builtin_names() {
        let scenario = Scenario::builtin(name).expect("listed names resolve");
        let path = format!("{dir}/{name}.json");
        fs::write(&path, format!("{}\n", scenario.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn parse_outcome(path: &str) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let outcome = ScenarioOutcome::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "outcome {:?}: {} workload, {} cell(s)",
        outcome.scenario,
        outcome.workload.kind(),
        outcome.cells.len()
    );
    Ok(())
}

/// Validates a `--jsonl` event stream: every line parses as a
/// [`RunEvent`], every started cell is closed (completed or failed)
/// before its scenario's `ScenarioCompleted`, and the stream ends with a
/// `ScenarioCompleted` — the session's completion guarantee, checked per
/// scenario segment so a truncated multi-scenario stream cannot pass on
/// the strength of an earlier scenario's terminator.
fn check_events(path: &str) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Cells currently open, each mapped to the run index its next
    // run-level event must carry: runs within a cell are 0-based,
    // gap-free, and strictly ascending, whether they measured or
    // panicked.
    let mut open_cells: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    let mut last: Option<RunEvent> = None;
    let mut count = 0usize;
    let mut scenarios = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        let event: RunEvent = serde_json::from_str(line).map_err(|e| at(&format!("{e}")))?;
        count += 1;
        match &event {
            RunEvent::CellStarted { cell, .. } => {
                if open_cells.insert(*cell, 0).is_some() {
                    return Err(at(&format!("cell {cell} started twice")));
                }
            }
            RunEvent::RunCompleted {
                cell, run_index, ..
            }
            | RunEvent::RunFailed {
                cell, run_index, ..
            } => {
                let Some(expected) = open_cells.get_mut(cell) else {
                    return Err(at(&format!("run event for cell {cell} that never started")));
                };
                if *run_index != *expected {
                    return Err(at(&format!(
                        "cell {cell} run {run_index} out of order: expected run {expected} \
                         (runs must be gap-free and ascending)"
                    )));
                }
                *expected += 1;
            }
            RunEvent::CellCompleted { cell, .. } | RunEvent::CellFailed { cell, .. } => {
                if open_cells.remove(cell).is_none() {
                    return Err(at(&format!("cell {cell} closed without starting")));
                }
            }
            RunEvent::ScenarioCompleted { .. } => {
                if !open_cells.is_empty() {
                    return Err(at(&format!(
                        "scenario completed with {} cell(s) still open",
                        open_cells.len()
                    )));
                }
                scenarios += 1;
            }
        }
        last = Some(event);
    }
    match last {
        Some(RunEvent::ScenarioCompleted {
            scenario,
            cells,
            failed_cells,
        }) => {
            println!(
                "events {path}: {count} event(s), {scenarios} scenario(s), last {scenario:?} \
                 completed ({cells} cell(s), {failed_cells} failed)"
            );
            Ok(())
        }
        Some(other) => Err(format!(
            "{path}: stream ends with {:?}, not scenario_completed — the run was cut short",
            other.kind()
        )),
        None => Err(format!("{path}: no events")),
    }
}
