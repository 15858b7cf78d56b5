//! The scenario executor, and cross-host campaign sharding on top of it:
//! split a scenario's run range over independent processes, merge the
//! parts back byte-identically.
//!
//! There is one cell loop (`execute`) and one place a cell's shard data
//! becomes a [`CellOutcome`] (`merge_cell_shards` and the per-mode
//! `merge_*_cell` functions). Every way of running a scenario goes
//! through both: [`Scenario::run`], [`Scenario::run_batch`] and
//! [`ScenarioSession::block`](crate::ScenarioSession::block) execute plan
//! 0/1 in this process and hand each finished cell straight to the
//! one-part merge; [`run_shard`] executes plan `i/N` and wraps the cells
//! in a digest-sealed [`PartialOutcome`], because its parts cross a
//! process boundary before [`merge_shards`] sees them.
//!
//! The paper's headline figures are distributions over ~1000 independent
//! replicate runs (§V.B). Runs are mutually independent replays of one
//! warmed-up snapshot — every per-run RNG stream derives from
//! `(seed, run_index)`, never from what ran before — so a campaign's run
//! range can be partitioned across processes or hosts with no shared
//! state at all:
//!
//! 1. [`ShardPlan::plan`] splits `0..runs` into `shard_count` disjoint
//!    contiguous ranges.
//! 2. Each shard process calls [`run_shard`] with its [`ShardSpec`]: it
//!    rebuilds and warms the network deterministically from the scenario
//!    (the *warm-snapshot replay model* — the snapshot ships as a recipe,
//!    not as state, because reconstruction is deterministic), captures a
//!    [`WarmSnapshot`] envelope whose content digest fingerprints the
//!    warmed state, executes only its run range, and serializes a
//!    [`PartialOutcome`].
//! 3. [`merge_shards`] folds the parts **in shard order** into a
//!    [`ScenarioOutcome`] that is byte-identical to the unsharded
//!    [`Scenario::run`] of the same scenario: run vectors
//!    concatenate in run-index order and [`MessageStats`] counters add
//!    exactly — a part carries nothing else to merge (see
//!    [`crate::wire`]). Envelope version, scenario digest and warm-state
//!    digests are all checked, so parts produced by a different scenario
//!    file, binary format or diverged warmup are rejected instead of
//!    silently merged.
//!
//! **Every workload shards**; each workload family has a sharding mode:
//!
//! - *Streaming* campaigns (tx-flood, churn-burst, overhead-probe) split
//!   by run range as above — one [`CampaignSlice`] per shard.
//! - *Paired* adversarial campaigns split the same way, twice: every
//!   shard runs its range of the clean (inert-force) campaign **and** of
//!   the attacked campaign, each off its own warmed snapshot, and the
//!   merge reassembles both [`CampaignSlice`] streams into the
//!   `AdversaryReport` the direct `adversarial_campaign` produces.
//! - *Mining* cells with `runs >= 1` replicate the mining window off one
//!   warmed snapshot (each run reseeded from `(seed, run_index)`), so
//!   their run range splits like any campaign's.
//! - Single-shot cells (partition, eclipse, legacy `runs: 0` mining) are
//!   *replicated*: every shard executes them whole — they are
//!   deterministic, so all copies agree — and the merge verifies the
//!   copies are byte-identical before keeping one.
//!
//! An adaptive [`StopRule`](crate::StopRule) depends on the folded prefix
//! of *all* runs. Shard 0/1 sees them all and drives the rule itself at
//! every fold (recording the stop in the slice's `stop_at`);
//! one shard of several cannot, so plain sharded execution **rejects**
//! the scenario — but a fleet may attach a
//! [`StopCoordinator`](crate::coordinate) via
//! [`ShardRunOptions::coordinator`]: shards submit digest-sealed folded
//! prefixes at deterministic run-index boundaries, the coordinator
//! evaluates the rule at global checkpoints, and every shard truncates to
//! the broadcast stop index — the merged campaign is then a strict,
//! deterministic `FixedRuns` prefix of the budget (see
//! [`crate::coordinate`] for the protocol and its determinism argument).
//!
//! # Examples
//!
//! A two-shard fig3 campaign in one process (across hosts, each
//! [`run_shard`] call is its own process and the parts travel as JSON):
//!
//! ```no_run
//! use bcbpt_core::{merge_shards, run_shard, Scenario, ShardSpec};
//!
//! let scenario = Scenario::builtin("fig3").expect("built-in").quick_scaled();
//! let parts = vec![
//!     run_shard(&scenario, ShardSpec::new(0, 2)?)?,
//!     run_shard(&scenario, ShardSpec::new(1, 2)?)?,
//! ];
//! let merged = merge_shards(parts)?;
//! assert_eq!(merged, scenario.run()?);
//! # Ok::<(), String>(())
//! ```

use crate::adversary::{assemble_report, WarmInfiltration};
use crate::coordinate::{is_shard_boundary, StopCoordinator};
use crate::experiment::{CampaignResult, FoldedPrefix, RunCheckpoint, RunResult};
use crate::forks::{fork_report_from_runs, mine_range, mining_warm, ForkRun};
use crate::overhead::OverheadReport;
use crate::resilience::{QuarantinedPart, RepairPlan, RunFailure, SalvageReport};
use crate::scenario::{CellOutcome, CellReport, Scenario, ScenarioCell, ScenarioOutcome, Workload};
use crate::session::{RunEvent, RunStats, StopRule};
use crate::warm::WarmCache;
use crate::wire::{
    CampaignSlice, CellProgress, CellShard, Checkpoint, CheckpointBody, Journal, PartialCell,
    PartialOutcome, PrefixEnvelope, PrefixTraffic, Sealed, StopDecision, WarmSnapshot,
    CHECKPOINT_FORMAT_VERSION, COORD_FORMAT_VERSION, SHARD_FORMAT_VERSION,
};
use bcbpt_adversary::AdversaryForce;
use bcbpt_cluster::ProtocolRegistry;
use bcbpt_net::{MessageStats, Network};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Which shard of how many — the `--shard i/N` coordinate a shard process
/// is launched with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index, `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Builds a spec, rejecting `count == 0` and `index >= count`.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (valid: 0..{count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI form `"i/N"`, e.g. `"0/4"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or range problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec {text:?} is not of the form i/N (e.g. 0/4)"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|e| format!("shard index in {text:?}: {e}"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("shard count in {text:?}: {e}"))?;
        ShardSpec::new(index, count)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One shard's slice of a campaign's run-index space: shard `shard_index`
/// of `shard_count` owns the contiguous range `run_start..run_end`.
///
/// Ranges are disjoint, cover `0..runs` exactly, and are balanced to
/// within one run (the first `runs % shard_count` shards take one extra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// This shard's index, `0..shard_count`.
    pub shard_index: usize,
    /// Total number of shards in the plan.
    pub shard_count: usize,
    /// First run index this shard executes (inclusive).
    pub run_start: usize,
    /// One past the last run index this shard executes (exclusive).
    pub run_end: usize,
}

impl ShardPlan {
    /// Splits `0..runs` into `shard_count` disjoint contiguous ranges.
    ///
    /// # Errors
    ///
    /// Rejects `shard_count == 0`.
    pub fn plan(runs: usize, shard_count: usize) -> Result<Vec<ShardPlan>, String> {
        if shard_count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        let base = runs / shard_count;
        let extra = runs % shard_count;
        let mut plans = Vec::with_capacity(shard_count);
        let mut start = 0;
        for shard_index in 0..shard_count {
            let len = base + usize::from(shard_index < extra);
            plans.push(ShardPlan {
                shard_index,
                shard_count,
                run_start: start,
                run_end: start + len,
            });
            start += len;
        }
        Ok(plans)
    }

    /// The plan entry for one [`ShardSpec`] coordinate.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs (see [`ShardSpec::new`]).
    pub fn for_shard(runs: usize, spec: ShardSpec) -> Result<ShardPlan, String> {
        let plans = ShardPlan::plan(runs, spec.count)?;
        plans
            .into_iter()
            .nth(spec.index)
            .ok_or_else(|| format!("shard index {} out of range", spec.index))
    }

    /// The run-index range this shard executes.
    pub fn run_range(&self) -> Range<usize> {
        self.run_start..self.run_end
    }

    /// The part of [`run_range`](Self::run_range) a cell stopped at the
    /// global run index `stop_at` keeps: everything below it (`None` =
    /// the whole range; empty when the stop lies before this shard).
    pub(crate) fn kept_range(&self, stop_at: Option<usize>) -> Range<usize> {
        let end = stop_at.map_or(self.run_end, |s| s.clamp(self.run_start, self.run_end));
        self.run_start..end
    }

    /// Number of runs this shard executes.
    pub fn len(&self) -> usize {
        self.run_end - self.run_start
    }

    /// `true` when this shard executes no runs (more shards than runs).
    pub fn is_empty(&self) -> bool {
        self.run_start == self.run_end
    }
}

/// How one workload family shards (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardMode {
    /// Streaming measuring-run campaign: split by run range, one slice.
    Streaming,
    /// Paired adversarial campaign: split by run range, two slices.
    Paired,
    /// Replicated mining campaign: split by run range, fork runs.
    MiningRange,
    /// Deterministic single-shot cell: every shard executes it whole.
    Replicated,
}

/// The sharding mode of a scenario's workload.
fn shard_mode(scenario: &Scenario) -> ShardMode {
    match &scenario.workload {
        Workload::TxFlood | Workload::ChurnBurst { .. } | Workload::OverheadProbe => {
            ShardMode::Streaming
        }
        Workload::Adversarial { .. } => ShardMode::Paired,
        Workload::Mining { .. } if scenario.runs > 0 => ShardMode::MiningRange,
        Workload::Mining { .. } | Workload::Partition | Workload::Eclipse { .. } => {
            ShardMode::Replicated
        }
    }
}

/// Where a checkpointing shard run persists its journal: called with each
/// [`Checkpoint`] record in turn — under the fold lock for the records of
/// a cell in flight — and expected to append the record's
/// [`to_json`](Checkpoint::to_json) line. Returning `Err` aborts the shard
/// run (a checkpointer that cannot write durably must not keep burning
/// runs whose progress would be lost). `Send` because the fold evaluates
/// its control hook from worker threads.
pub type CheckpointSink<'s> = dyn FnMut(&Checkpoint) -> Result<(), String> + Send + 's;

/// Receives the live [`RunEvent`] stream of a shard run (see
/// [`ShardRunOptions::observe`]): called synchronously, under the fold
/// lock for run events, so hand work off quickly. `Send` because the fold
/// evaluates its control hook from worker threads.
pub type ShardObserver<'s> = dyn FnMut(&RunEvent) + Send + 's;

/// Execution options of [`run_shard_with`] — threads, checkpointing and
/// resume. [`Default`] reproduces plain [`run_shard_in`] behaviour (no
/// checkpoints, no resume, one worker per core).
pub struct ShardRunOptions<'a> {
    /// Worker-thread count (`None` = one per available core). Output is
    /// byte-identical for any value.
    pub threads: Option<usize>,
    /// Continue from this journal ([`Journal::read`] of what an earlier
    /// run's `sink` wrote) instead of starting at the plan's first run.
    /// Must match the scenario and shard coordinate, or the run is
    /// refused. The records this run writes chain on from it, so its
    /// `sink` must append to the same file, cut to
    /// [`valid_len`](Journal::valid_len) first.
    pub resume: Option<Journal>,
    /// Folds per mid-cell journal record (minimum 1). Ignored without a
    /// `sink`.
    pub checkpoint_every: usize,
    /// Receives every sealed [`Checkpoint`] record of the run's journal;
    /// `None` disables checkpointing.
    pub sink: Option<&'a mut CheckpointSink<'a>>,
    /// Receives the run's live [`RunEvent`] stream — for plan 0/1, what a
    /// [`ScenarioSession`](crate::ScenarioSession) observer sees (it is
    /// this hook). On a resumed run it emits the *continuation* only —
    /// replay the persisted prefix first with
    /// [`checkpoint_replay_events`].
    pub observe: Option<&'a mut ShardObserver<'a>>,
    /// Warms campaign cells through this cache (see
    /// [`WarmCache`](crate::WarmCache)): sweep cells sharing a warm
    /// recipe — and repeated shard runs over one cache — build + warm the
    /// network once and clone thereafter, with byte-identical parts.
    pub warm_cache: Option<&'a WarmCache>,
    /// Coordinates an adaptive stop rule across the fleet (see
    /// [`crate::coordinate`]): the shard submits sealed folded-prefix
    /// envelopes at its cadence boundaries, blocks on the per-cell stop
    /// decision at each cell's end, and truncates its slice to the
    /// broadcast stop index. Required to run a scenario whose stop rule
    /// is adaptive as more than one shard; must speak for the same
    /// scenario digest and shard count this run was launched with.
    pub coordinator: Option<&'a dyn StopCoordinator>,
}

impl Default for ShardRunOptions<'_> {
    fn default() -> Self {
        ShardRunOptions {
            threads: None,
            resume: None,
            checkpoint_every: 1,
            sink: None,
            observe: None,
            warm_cache: None,
            coordinator: None,
        }
    }
}

/// How a cell's shard run failed: recorded errors ride along in the cell's
/// place, fatal ones abort the whole run.
enum CellError {
    /// The cell failed at run time — recorded as [`CellShard::Failed`].
    Recorded(String),
    /// Checkpointing failed or resume state was inconsistent — the shard
    /// run must stop rather than produce a part that lies about its
    /// durability.
    Fatal(String),
}

/// Executes one shard of `scenario` against the built-in protocol set
/// with one worker thread per available core.
///
/// # Errors
///
/// Propagates validation errors, and rejects running a scenario that
/// declares an adaptive stop rule as one shard of several (it cannot
/// evaluate a whole-campaign stop decision); per-cell run-time failures
/// are recorded in the part, not returned.
pub fn run_shard(scenario: &Scenario, spec: ShardSpec) -> Result<PartialOutcome, String> {
    run_shard_in(
        scenario,
        spec,
        &ProtocolRegistry::builtins(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// [`run_shard`] with protocols resolved against `registry` and an
/// explicit worker-thread count (output is byte-identical for any value).
///
/// # Errors
///
/// Same conditions as [`run_shard`].
pub fn run_shard_in(
    scenario: &Scenario,
    spec: ShardSpec,
    registry: &ProtocolRegistry,
    threads: usize,
) -> Result<PartialOutcome, String> {
    run_shard_with(
        scenario,
        spec,
        registry,
        ShardRunOptions {
            threads: Some(threads),
            ..ShardRunOptions::default()
        },
    )
}

/// [`run_shard`] with full execution options: worker threads, mid-cell
/// checkpointing through a [`CheckpointSink`], and resume from a prior
/// run's [`Journal`]. A killed-and-resumed shard produces a part
/// byte-identical to an uninterrupted run at any thread count.
///
/// # Errors
///
/// Everything [`run_shard`] rejects, plus: a resume journal that does not
/// match this scenario and shard coordinate; a re-warmed snapshot that
/// diverges from the journal's; and a sink write failure (the run aborts
/// — progress past a record that cannot be persisted would be silently
/// lost on the next crash).
pub fn run_shard_with(
    scenario: &Scenario,
    spec: ShardSpec,
    registry: &ProtocolRegistry,
    options: ShardRunOptions<'_>,
) -> Result<PartialOutcome, String> {
    let (plan, digest, cells, _) = execute(scenario, spec, registry, options, false)?;
    let mut part = PartialOutcome {
        version: SHARD_FORMAT_VERSION,
        scenario: scenario.name.clone(),
        scenario_digest: digest,
        workload: scenario.workload.clone(),
        scenario_runs: scenario.runs,
        plan,
        cells,
        digest: 0,
    };
    part.seal();
    Ok(part)
}

/// Runs `scenario` whole in this process: plan 0/1 through the executor,
/// each finished cell handed straight to the per-cell merge. What
/// [`Scenario::run`], [`Scenario::run_batch`] and
/// [`ScenarioSession::block`](crate::ScenarioSession::block) call. No
/// [`PartialOutcome`] is built and nothing is sealed — the envelope and its
/// digests exist to detect corruption across a process boundary, and there
/// is none here.
pub(crate) fn run_unsharded(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    options: ShardRunOptions<'_>,
) -> Result<ScenarioOutcome, String> {
    let whole = ShardSpec { index: 0, count: 1 };
    let (_, _, _, cells) = execute(scenario, whole, registry, options, true)?;
    Ok(ScenarioOutcome::new(
        scenario.name.clone(),
        scenario.workload.clone(),
        cells,
    ))
}

/// The one scenario executor: validates, plans `spec`'s run range, and runs
/// every cell of the sweep through its workload's shard mode, streaming
/// [`RunEvent`]s, checkpointing and coordinating as `options` ask. Returns
/// the plan, the scenario's digest and what it kept of each cell:
/// the wire parts a shard process seals into its [`PartialOutcome`], or
/// (`in_process`) each cell's one-part merge instead.
fn execute(
    scenario: &Scenario,
    spec: ShardSpec,
    registry: &ProtocolRegistry,
    options: ShardRunOptions<'_>,
    in_process: bool,
) -> Result<(ShardPlan, u64, Vec<PartialCell>, Vec<CellOutcome>), String> {
    scenario.validate_in(registry)?;
    let mode = shard_mode(scenario);
    let digest = scenario.digest();
    let adaptive = scenario.stop.filter(StopRule::is_adaptive);
    if let Some(stop) = &adaptive {
        if spec.count > 1 && options.coordinator.is_none() {
            return Err(format!(
                "scenario {:?} declares the adaptive stop rule {} — one shard of {} cannot stop \
                 adaptively, because a stop decision depends on the folded prefix of all runs \
                 and a shard only ever sees its own range; run every shard with \
                 --coordinate <addr> so a coordinator evaluates the rule across the fleet, run \
                 the scenario as a single shard (0/1), or remove the \"stop\" field (or set it \
                 to \"FixedRuns\") to consume the full budget",
                scenario.name,
                stop.label(),
                spec.count
            ));
        }
    }
    let coordination = match options.coordinator {
        None => None,
        Some(coordinator) => {
            let config = coordinator
                .config()
                .map_err(|e| format!("coordinator config: {e}"))?;
            config.verify_seal()?;
            if config.scenario_digest != digest {
                return Err(format!(
                    "coordinator speaks for scenario digest {:#018x}, this shard runs \
                     {digest:#018x} — point every shard and the coordinator at the same \
                     scenario file",
                    config.scenario_digest
                ));
            }
            if config.shard_count != spec.count {
                return Err(format!(
                    "coordinator expects a {}-shard fleet, this shard was launched as {spec}",
                    config.shard_count
                ));
            }
            match &scenario.stop {
                Some(stop) if stop.is_data_driven() => {}
                _ => {
                    return Err(
                        "coordinated sharding requires the scenario to declare a data-driven \
                         adaptive stop rule (CiHalfWidth, VarianceStable)"
                            .to_string(),
                    )
                }
            }
            if mode != ShardMode::Streaming {
                return Err(
                    "coordinated stopping requires a streaming campaign workload (tx-flood, \
                     churn-burst, overhead-probe)"
                        .to_string(),
                );
            }
            Some((coordinator, config.cadence))
        }
    };
    // Shard 0/1 sees every run, so without a coordinator it evaluates the
    // rule itself, at every fold.
    let local_stop = adaptive.filter(|_| coordination.is_none());
    let plan = ShardPlan::for_shard(scenario.runs, spec)?;
    let threads = options
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let checkpoint_every = options.checkpoint_every.max(1);
    let all_cells = scenario.cells();
    let mut journal = options.sink.map(|sink| JournalWriter { sink, chain: 0 });
    let (mut cells, mut current) = match options.resume {
        None => {
            if let Some(journal) = journal.as_mut() {
                let header = CheckpointBody::Header {
                    scenario: scenario.name.clone(),
                    scenario_digest: digest,
                    scenario_runs: scenario.runs,
                    plan,
                };
                journal.append(header)?;
            }
            (Vec::new(), None)
        }
        Some(resume) => {
            if let Some(journal) = journal.as_mut() {
                journal.chain = resume.chain;
            }
            validate_resume(resume, scenario, digest, plan, &all_cells, mode)?
        }
    };
    let mut outcomes = Vec::new();
    let first_cell = cells.len();
    let mut observer = options.observe;
    let planned_runs = planned_runs(scenario);
    for (cell_index, cell) in all_cells.into_iter().enumerate().skip(first_cell) {
        let resume_cell = if current.as_ref().is_some_and(|p| p.cell_index == cell_index) {
            current.take()
        } else {
            None
        };
        // A resumed cell's `CellStarted` (and run prefix) was already
        // emitted by the run that wrote the journal — the caller
        // replays it via `checkpoint_replay_events`; this run streams the
        // continuation only.
        if resume_cell.is_none() {
            if let Some(observer) = observer.as_mut() {
                observer(&RunEvent::CellStarted {
                    cell: cell_index,
                    label: cell.label.clone(),
                    planned_runs,
                });
            }
        }
        // A cell that fails at run time does not abort the sweep: the
        // error is recorded in its place and surfaced by the renderers, so
        // one bad cell cannot silently NaN a whole table. A coordinated
        // shard additionally abandons the cell so peers blocked on its
        // envelopes fail fast instead of hanging.
        let ran = match mode {
            ShardMode::Streaming => run_cell_shard(
                scenario,
                registry,
                threads,
                &cell,
                cell_index,
                plan,
                resume_cell,
                checkpoint_every,
                &mut journal,
                &mut observer,
                options.warm_cache,
                digest,
                coordination,
                local_stop,
            ),
            ShardMode::Paired => run_paired_cell_shard(scenario, registry, threads, &cell, plan),
            ShardMode::MiningRange => run_mining_cell_shard(scenario, registry, &cell, plan),
            ShardMode::Replicated => scenario
                .run_single_shot_cell(registry, &cell)
                .map(|report| CellShard::Replicated { report })
                .map_err(CellError::Recorded),
        };
        let part = match ran {
            Ok(part) => part,
            Err(CellError::Recorded(error)) => {
                if let Some((coordinator, _)) = coordination {
                    // Best effort — the abandon itself failing must not
                    // mask the cell's own error.
                    let _ = coordinator.abandon(cell_index, &error);
                }
                CellShard::Failed { error }
            }
            Err(CellError::Fatal(error)) => {
                if let Some((coordinator, _)) = coordination {
                    let _ = coordinator.abandon(cell_index, &error);
                }
                return Err(error);
            }
        };
        let (label, protocol) = (cell.label, cell.protocol.to_string());
        if in_process {
            // Straight to the per-cell merge: the outcome is both what the
            // run keeps and what the closing event carries.
            let (runs_used, stopped_early) = cell_usage(plan, &part, planned_runs);
            let outcome = merge_cell_shards(
                vec![(plan, part)],
                &scenario.workload,
                label,
                protocol,
                cell.num_nodes,
            )?;
            if let Some(observer) = observer.as_mut() {
                observer(&closing_event(
                    cell_index,
                    outcome.clone(),
                    runs_used,
                    stopped_early,
                ));
            }
            outcomes.push(outcome);
            continue;
        }
        let done = PartialCell {
            label,
            protocol,
            num_nodes: cell.num_nodes,
            part,
        };
        // The closing event carries the cell outcome this part implies (its
        // one-part merge); only pay for it when someone listens.
        if let Some(observer) = observer.as_mut() {
            observer(&part_closing_event(
                cell_index,
                plan,
                &done,
                &scenario.workload,
                planned_runs,
            )?);
        }
        // Cell-boundary record: a crash between cells costs nothing.
        if let Some(journal) = journal.as_mut() {
            journal.append(CheckpointBody::CellDone {
                cell: without_run_streams(&done),
            })?;
        }
        cells.push(done);
    }
    if let Some(observer) = observer.as_mut() {
        let failed_parts = cells
            .iter()
            .filter(|c| matches!(c.part, CellShard::Failed { .. }));
        let failed_outcomes = outcomes.iter().filter(|o| o.error().is_some());
        observer(&RunEvent::ScenarioCompleted {
            scenario: scenario.name.clone(),
            cells: cells.len() + outcomes.len(),
            failed_cells: failed_parts.count() + failed_outcomes.count(),
        });
    }
    Ok((plan, digest, cells, outcomes))
}

/// The append side of a shard run's checkpoint journal: seals each record
/// over the digest of the one before and hands it to the sink.
struct JournalWriter<'s, 'a> {
    sink: &'s mut CheckpointSink<'a>,
    /// Digest of the last record written (or, on resume, restored): the
    /// next record's `prev`.
    chain: u64,
}

impl JournalWriter<'_, '_> {
    /// Seals `body` as the journal's next record and persists it.
    fn append(&mut self, body: CheckpointBody) -> Result<(), String> {
        let mut record = Checkpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            prev: self.chain,
            body,
            digest: 0,
        };
        record.seal();
        let _span = bcbpt_obs::span("checkpoint");
        let _timer = crate::obs::checkpoint_write_seconds().start_timer();
        (self.sink)(&record).map_err(|e| format!("checkpoint write failed: {e}"))?;
        self.chain = record.digest;
        Ok(())
    }
}

/// `done` as its cell-done record carries it: the runs and failures of a
/// campaign cell are already in the journal, one fold record at a time
/// (see [`CheckpointBody::CellDone`]).
fn without_run_streams(done: &PartialCell) -> PartialCell {
    let part = match &done.part {
        CellShard::Campaign { slice } => CellShard::Campaign {
            slice: CampaignSlice {
                snapshot: slice.snapshot.clone(),
                runs: Vec::new(),
                failures: Vec::new(),
                window_traffic: slice.window_traffic.clone(),
                stop_at: slice.stop_at,
            },
        },
        whole => whole.clone(),
    };
    PartialCell {
        label: done.label.clone(),
        protocol: done.protocol.clone(),
        num_nodes: done.num_nodes,
        part,
    }
}

/// The `planned_runs` every cell event of `scenario` reports: the `runs`
/// budget of a measuring-run campaign, 0 for mining and single-shot cells.
fn planned_runs(scenario: &Scenario) -> usize {
    if scenario.workload.is_campaign() {
        scenario.runs
    } else {
        0
    }
}

/// What a finished cell's closing event says about its budget, read off
/// the part before the merge consumes it: the run indices it kept — the
/// plan's range cut at the slice's stop index for a streaming cell (so a
/// stopped cell reports the prefix it kept), the planned budget for every
/// other mode — and whether a stop rule, coordinated or local, cut it short.
fn cell_usage(plan: ShardPlan, part: &CellShard, planned_runs: usize) -> (usize, bool) {
    match part {
        CellShard::Campaign { slice } => {
            let kept = plan.kept_range(slice.stop_at);
            (kept.len(), slice.stop_at.is_some())
        }
        _ => (planned_runs, false),
    }
}

/// The event closing the cell whose merged outcome is `outcome`.
fn closing_event(
    cell: usize,
    outcome: CellOutcome,
    runs_used: usize,
    stopped_early: bool,
) -> RunEvent {
    match outcome.error() {
        Some(error) => RunEvent::CellFailed {
            cell,
            label: outcome.label.clone(),
            error: error.to_string(),
        },
        None => RunEvent::CellCompleted {
            cell,
            report: Box::new(outcome),
            runs_used,
            stopped_early,
        },
    }
}

/// [`closing_event`] of one kept wire part, through its one-part merge.
fn part_closing_event(
    cell: usize,
    plan: ShardPlan,
    done: &PartialCell,
    workload: &Workload,
    planned_runs: usize,
) -> Result<RunEvent, String> {
    let (runs_used, stopped_early) = cell_usage(plan, &done.part, planned_runs);
    let outcome = merge_cell_shards(
        vec![(plan, done.part.clone())],
        workload,
        done.label.clone(),
        done.protocol.clone(),
        done.num_nodes,
    )?;
    Ok(closing_event(cell, outcome, runs_used, stopped_early))
}

/// Reconstructs the [`RunEvent`] prefix a resumed shard run does *not*
/// re-emit: the full per-cell streams of every completed cell in
/// `journal.cells_done`, plus the in-flight cell's `CellStarted` and
/// the run events of its persisted prefix. Feeding these to a subscriber
/// and then continuing with [`ShardRunOptions::observe`] on the resumed
/// run yields a stream byte-identical to an uninterrupted run's — run
/// stats are refolded from the journal's run stream bit-identically.
///
/// # Errors
///
/// Rejects a journal that does not belong to `scenario` (same checks as
/// resuming through [`run_shard_with`]).
pub fn checkpoint_replay_events(
    scenario: &Scenario,
    journal: &Journal,
) -> Result<Vec<RunEvent>, String> {
    let plan = journal.plan;
    let digest = scenario.digest();
    let all_cells = scenario.cells();
    let mode = shard_mode(scenario);
    let (cells_done, current) =
        validate_resume(journal.clone(), scenario, digest, plan, &all_cells, mode)?;
    let planned_runs = planned_runs(scenario);
    let mut events = Vec::new();
    for (cell_index, done) in cells_done.iter().enumerate() {
        events.push(RunEvent::CellStarted {
            cell: cell_index,
            label: done.label.clone(),
            planned_runs,
        });
        // Only streaming cells stream per-run events; a stop truncated
        // the kept range, and the replay covers only what the part kept.
        if let CellShard::Campaign { slice } = &done.part {
            replay_run_events(
                &mut events,
                cell_index,
                plan.kept_range(slice.stop_at),
                &slice.runs,
                &slice.failures,
            );
        }
        events.push(part_closing_event(
            cell_index,
            plan,
            done,
            &scenario.workload,
            planned_runs,
        )?);
    }
    if let Some(progress) = &current {
        let label = all_cells
            .get(progress.cell_index)
            .map(|c| c.label.clone())
            .unwrap_or_default();
        events.push(RunEvent::CellStarted {
            cell: progress.cell_index,
            label,
            planned_runs,
        });
        replay_run_events(
            &mut events,
            progress.cell_index,
            plan.run_start..progress.next_run,
            &progress.runs,
            &progress.failures,
        );
    }
    Ok(events)
}

/// The event one folded run index emits: `RunFailed` for a panicking run,
/// else `RunCompleted` with the pooled prefix statistics (`result: None` =
/// the run was skipped). Shared by the live fold and checkpoint replay.
fn run_event(
    cell: usize,
    run_index: usize,
    result: Option<&RunResult>,
    failure: Option<&RunFailure>,
    folded: &FoldedPrefix,
) -> RunEvent {
    match failure {
        // A panicking run folds as a structured failure — observed like
        // any other run, so JSONL consumers see a gap-free run-index
        // stream.
        Some(failure) => RunEvent::RunFailed {
            cell,
            run_index,
            payload: failure.payload.clone(),
        },
        None => RunEvent::RunCompleted {
            cell,
            run_index,
            run_stats: RunStats::folded(result, &folded.deltas, folded.measured),
        },
    }
}

/// Walks one cell's persisted run stream over a run-index range, refolding
/// the pooled accumulators in run-index order — the same fold the live
/// campaign performed, so `folded` after each step is bit-identical to
/// what the [`RunCheckpoint`] of that index carried. Indices absent from
/// both `runs` and `failures` are skipped runs, exactly as the live fold
/// saw them.
struct PrefixWalk<'a> {
    range: Range<usize>,
    runs: std::iter::Peekable<std::slice::Iter<'a, RunResult>>,
    failures: std::iter::Peekable<std::slice::Iter<'a, RunFailure>>,
    /// The pooled accumulators over every index stepped so far.
    folded: FoldedPrefix,
}

impl<'a> PrefixWalk<'a> {
    fn new(range: Range<usize>, runs: &'a [RunResult], failures: &'a [RunFailure]) -> Self {
        PrefixWalk {
            range,
            runs: runs.iter().peekable(),
            failures: failures.iter().peekable(),
            folded: FoldedPrefix::new(),
        }
    }

    /// Folds the next run index and returns it with its retired form.
    fn step(&mut self) -> Option<(usize, Option<&'a RunResult>, Option<&'a RunFailure>)> {
        let run_index = self.range.next()?;
        let failure = self.failures.next_if(|f| f.run_index == run_index);
        let result = match failure {
            Some(_) => None,
            None => self.runs.next_if(|r| r.run_index == run_index),
        };
        if let Some(result) = result {
            self.folded.fold(result);
        }
        Some((run_index, result, failure))
    }
}

/// Replays the per-run events of one cell's persisted run stream over
/// `range` — exactly what the live stream emitted.
fn replay_run_events(
    events: &mut Vec<RunEvent>,
    cell: usize,
    range: Range<usize>,
    runs: &[RunResult],
    failures: &[RunFailure],
) {
    let mut walk = PrefixWalk::new(range, runs, failures);
    while let Some((run_index, result, failure)) = walk.step() {
        events.push(run_event(cell, run_index, result, failure, &walk.folded));
    }
}

/// Checks a resume [`Journal`] (its records verified and chained by
/// [`Journal::read`]) against the scenario and shard coordinate this
/// process was launched with, returning the restored completed cells and
/// in-flight progress.
fn validate_resume(
    journal: Journal,
    scenario: &Scenario,
    digest: u64,
    plan: ShardPlan,
    cells: &[ScenarioCell],
    mode: ShardMode,
) -> Result<(Vec<PartialCell>, Option<CellProgress>), String> {
    if journal.scenario != scenario.name || journal.scenario_digest != digest {
        return Err(format!(
            "checkpoint belongs to scenario {:?} (digest {:#018x}), not {:?} (digest \
             {:#018x}) — resume with the checkpoint this scenario wrote, or re-run \
             without --resume",
            journal.scenario, journal.scenario_digest, scenario.name, digest
        ));
    }
    if journal.scenario_runs != scenario.runs {
        return Err(format!(
            "checkpoint carries a runs budget of {} but the scenario declares {} — the \
             file is corrupt",
            journal.scenario_runs, scenario.runs
        ));
    }
    if journal.plan != plan {
        return Err(format!(
            "checkpoint was written by shard {}/{} (runs {}..{}) but this process is \
             shard {}/{} (runs {}..{}) — resume each shard from its own checkpoint",
            journal.plan.shard_index,
            journal.plan.shard_count,
            journal.plan.run_start,
            journal.plan.run_end,
            plan.shard_index,
            plan.shard_count,
            plan.run_start,
            plan.run_end
        ));
    }
    if journal.cells_done.len() > cells.len() {
        return Err(format!(
            "checkpoint claims {} completed cell(s) but the scenario sweeps {} — the \
             file is corrupt",
            journal.cells_done.len(),
            cells.len()
        ));
    }
    for (done, expected) in journal.cells_done.iter().zip(cells) {
        if done.label != expected.label {
            return Err(format!(
                "checkpoint cell {:?} does not match the scenario's cell {:?} in sweep \
                 order — the file is corrupt",
                done.label, expected.label
            ));
        }
    }
    if let Some(progress) = &journal.current {
        if mode != ShardMode::Streaming {
            return Err(
                "checkpoint carries mid-cell progress for a workload that only \
                 checkpoints at cell boundaries — the file is corrupt"
                    .to_string(),
            );
        }
        if progress.cell_index != journal.cells_done.len() || progress.cell_index >= cells.len() {
            return Err(format!(
                "checkpoint's in-flight cell index {} does not follow its {} completed \
                 cell(s) — the file is corrupt",
                progress.cell_index,
                journal.cells_done.len()
            ));
        }
        if progress.next_run < plan.run_start || progress.next_run > plan.run_end {
            return Err(format!(
                "checkpoint resumes at run {} which is outside the shard's range {}..{}",
                progress.next_run, plan.run_start, plan.run_end
            ));
        }
        progress.snapshot.verify_seal()?;
        for (what, indices) in [
            (
                "runs",
                progress
                    .runs
                    .iter()
                    .map(|r| r.run_index)
                    .collect::<Vec<_>>(),
            ),
            (
                "failures",
                progress.failures.iter().map(|f| f.run_index).collect(),
            ),
        ] {
            let mut prev: Option<usize> = None;
            for index in indices {
                if index < plan.run_start || index >= progress.next_run {
                    return Err(format!(
                        "checkpoint {what} include run {index}, outside the folded prefix \
                         {}..{} — the file is corrupt",
                        plan.run_start, progress.next_run
                    ));
                }
                if prev.is_some_and(|p| index <= p) {
                    return Err(format!(
                        "checkpoint {what} are not in ascending run-index order — the \
                         file is corrupt"
                    ));
                }
                prev = Some(index);
            }
        }
        let mut prev_boundary: Option<usize> = None;
        for boundary in &progress.boundary_traffic {
            if boundary.upto <= plan.run_start || boundary.upto > progress.next_run {
                return Err(format!(
                    "checkpoint freezes window traffic at boundary {}, outside the folded \
                     prefix {}..{} — the file is corrupt",
                    boundary.upto, plan.run_start, progress.next_run
                ));
            }
            if prev_boundary.is_some_and(|p| boundary.upto <= p) {
                return Err(
                    "checkpoint boundary-traffic entries are not in ascending order — the \
                     file is corrupt"
                        .to_string(),
                );
            }
            prev_boundary = Some(boundary.upto);
        }
    }
    Ok((journal.cells_done, journal.current))
}

/// Runs one campaign cell's shard range: rebuild + warm the snapshot,
/// execute only the (possibly resumed) remainder of `plan.run_range()`,
/// and append a record of the folds since the last one to `journal` every
/// `checkpoint_every` folds. An empty range still warms the cell — the
/// snapshot digest is this shard's proof that it agrees on the warmed
/// state.
///
/// With `coordination`, the shard additionally submits a sealed
/// folded-prefix envelope at every cadence boundary it crosses, freezes
/// the window traffic at that boundary (so a later stop decision can
/// truncate exactly there), halts as soon as a broadcast stop index is
/// behind it, and blocks on the per-cell decision before finalizing —
/// the returned slice is then the strict prefix `run_start..stop_at` of
/// what an uncoordinated shard would have produced.
///
/// With `local_stop` (plan 0/1, no coordinator) the shard sees every run,
/// so it drives the rule itself at every fold and records where it fired
/// in the slice's `stop_at`, like a coordinated decision.
#[allow(clippy::too_many_arguments)]
fn run_cell_shard(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    threads: usize,
    cell: &ScenarioCell,
    cell_index: usize,
    plan: ShardPlan,
    resume: Option<CellProgress>,
    checkpoint_every: usize,
    journal: &mut Option<JournalWriter<'_, '_>>,
    observer: &mut Option<&mut ShardObserver<'_>>,
    warm: Option<&WarmCache>,
    scenario_digest: u64,
    coordination: Option<(&dyn StopCoordinator, usize)>,
    local_stop: Option<StopRule>,
) -> Result<CellShard, CellError> {
    // The wall-clock budget of `StopRule::WallClockMs` covers the cell's
    // warmup too.
    let started = Instant::now();
    let cfg = scenario.cell_config(cell);
    let start_run = resume.as_ref().map_or(plan.run_start, |p| p.next_run);
    // A resumed cell's journal already holds its cell-warmed record.
    let mut warmed_journaled = resume.is_some();
    let (resumed_snapshot, prefix_runs, prefix_failures, prefix_window, mut boundary_traffic) =
        match resume {
            Some(p) => (
                Some(p.snapshot),
                p.runs,
                p.failures,
                p.window_traffic,
                p.boundary_traffic,
            ),
            None => Default::default(),
        };
    let envelope_at = |upto: usize, folded: &FoldedPrefix| {
        let mut envelope = PrefixEnvelope {
            version: COORD_FORMAT_VERSION,
            scenario_digest,
            cell_index,
            shard_index: plan.shard_index,
            shard_count: plan.shard_count,
            upto,
            deltas: folded.deltas,
            run_means: folded.run_means,
            measured_runs: folded.measured,
            digest: 0,
        };
        envelope.seal();
        envelope
    };
    // Coordinated stopping: the decision may already exist (a restarted
    // coordinator presets restored decisions; a resumed shard rejoins
    // late).
    let mut known_decision: Option<StopDecision> = None;
    if let Some((coordinator, _)) = coordination {
        known_decision = coordinator
            .decision(cell_index)
            .map_err(|e| CellError::Recorded(format!("coordinator: {e}")))?;
    }
    // Refold the resumed prefix once, in run-index order: the result seeds
    // the campaign fold (so every later fold carries whole-prefix
    // statistics for the observer, the coordinator envelope and the local
    // rule alike), and along the way a resumed shard resubmits the
    // envelopes it already crossed — bit-identical to the originals, so
    // resubmission is idempotent — and re-primes the stateful local
    // evaluator with exactly the checkpoints the interrupted run showed it.
    let mut local_eval = local_stop.map(|rule| rule.evaluator());
    let mut local_stop_at: Option<usize> = None;
    let mut walk = PrefixWalk::new(plan.run_start..start_run, &prefix_runs, &prefix_failures);
    while let Some((run_index, _, _)) = walk.step() {
        let upto = run_index + 1;
        if let Some(eval) = local_eval.as_mut() {
            let folded = &walk.folded;
            if local_stop_at.is_none()
                && eval.observe_folded(&folded.deltas, &folded.run_means, folded.measured)
            {
                local_stop_at = Some(upto);
            }
        }
        let Some((coordinator, cadence)) = coordination else {
            continue;
        };
        if !is_shard_boundary(plan.run_start, plan.run_end, cadence, upto) {
            continue;
        }
        if !boundary_traffic.iter().any(|b| b.upto == upto) {
            return Err(CellError::Fatal(format!(
                "cell {:?}: the resume checkpoint carries no frozen window traffic for \
                 coordinator boundary {upto} — it was written without --coordinate (or \
                 at a different cadence); delete it and re-run the shard without --resume",
                cell.label
            )));
        }
        match coordinator.submit(envelope_at(upto, &walk.folded)) {
            Ok(Some(decision)) => known_decision = Some(decision),
            Ok(None) => {}
            Err(e) => {
                return Err(CellError::Recorded(format!("coordinator: {e}")));
            }
        }
    }
    let seed = walk.folded;
    // A stop known before any new run clamps the planned range — runs past
    // the stop index would be executed only to be truncated.
    let stop_known = known_decision
        .as_ref()
        .and_then(|d| d.stop_at)
        .or(local_stop_at);
    let planned_end = plan.kept_range(stop_known).end;
    // The warm inspection (main thread, before runs fan out) fills this
    // slot; the control hook (under the fold lock, possibly on a worker)
    // reads it for the journal and the boundary traffic — hence the mutex.
    let snapshot_slot: Mutex<Option<WarmSnapshot>> = Mutex::new(None);
    let mut inspect = |net: &Network| {
        *snapshot_slot.lock().expect("snapshot slot") = Some(WarmSnapshot::capture(&cfg, net));
    };
    let mut sink_error: Option<String> = None;
    let mut coord_error: Option<String> = None;
    // How much of what the fold lends (`runs`, `failures`) and of
    // `boundary_traffic` the journal already holds.
    let (mut runs_journaled, mut failures_journaled) = (0, 0);
    let mut boundaries_journaled = boundary_traffic.len();
    let mut control = |checkpoint: &RunCheckpoint<'_>| {
        let mut stop = false;
        let upto = checkpoint.run_index + 1;
        if let Some(observer) = observer.as_mut() {
            observer(&run_event(
                cell_index,
                checkpoint.run_index,
                checkpoint.result,
                checkpoint.failure,
                checkpoint.folded,
            ));
        }
        if let Some(eval) = local_eval.as_mut() {
            if eval.observe(checkpoint, started) {
                local_stop_at = Some(upto);
                stop = true;
            }
        }
        if let Some((coordinator, cadence)) = coordination {
            if is_shard_boundary(plan.run_start, plan.run_end, cadence, upto) {
                // Freeze the window traffic at this boundary *before* any
                // durable checkpoint of this fold, so a resumed shard can
                // still truncate to a decision that lands exactly here.
                let snapshot_guard = snapshot_slot.lock().expect("snapshot slot");
                let snapshot = snapshot_guard
                    .as_ref()
                    .expect("warm inspection runs before folds");
                let mut window = prefix_window.clone();
                window.merge(&checkpoint.traffic.since(&snapshot.warmup_traffic));
                drop(snapshot_guard);
                boundary_traffic.push(PrefixTraffic {
                    upto,
                    traffic: window,
                });
                if known_decision.is_none() {
                    match coordinator.submit(envelope_at(upto, checkpoint.folded)) {
                        Ok(Some(decision)) => known_decision = Some(decision),
                        Ok(None) => {}
                        Err(e) => {
                            coord_error = Some(e);
                            stop = true;
                        }
                    }
                }
                if let Some(decision) = &known_decision {
                    if decision.stop_at.is_some_and(|s| upto >= s) {
                        stop = true;
                    }
                }
            }
        }
        if let Some(journal) = journal.as_mut() {
            // The cell's last fold closes a record whatever the cadence:
            // the cell-done record that follows carries no runs.
            let last_fold = stop || upto == planned_end;
            if last_fold || (upto - start_run).is_multiple_of(checkpoint_every) {
                let snapshot_guard = snapshot_slot.lock().expect("snapshot slot");
                let snapshot = snapshot_guard
                    .as_ref()
                    .expect("warm inspection runs before folds");
                let mut window_traffic = prefix_window.clone();
                window_traffic.merge(&checkpoint.traffic.since(&snapshot.warmup_traffic));
                let warmed = (!warmed_journaled).then(|| CheckpointBody::CellWarmed {
                    cell_index,
                    snapshot: snapshot.clone(),
                });
                drop(snapshot_guard);
                // Only what was folded since the last record is copied.
                let folds = CheckpointBody::Folds {
                    cell_index,
                    runs: checkpoint.runs[runs_journaled..].to_vec(),
                    failures: checkpoint.failures[failures_journaled..].to_vec(),
                    window_traffic,
                    boundary_traffic: boundary_traffic[boundaries_journaled..].to_vec(),
                    next_run: upto,
                };
                let written = warmed
                    .into_iter()
                    .chain([folds])
                    .try_for_each(|body| journal.append(body));
                match written {
                    Ok(()) => {
                        warmed_journaled = true;
                        runs_journaled = checkpoint.runs.len();
                        failures_journaled = checkpoint.failures.len();
                        boundaries_journaled = boundary_traffic.len();
                    }
                    Err(e) => {
                        sink_error = Some(e);
                        stop = true;
                    }
                }
            }
        }
        // `DieAfterRuns` dies here — after the fold (and after any
        // record of it was persisted), like a real mid-campaign kill.
        #[cfg(feature = "fault-injection")]
        crate::resilience::fault::note_run_folded();
        stop
    };
    let campaign = cfg
        .run_campaign_range(
            registry,
            threads,
            None,
            warm,
            Some(&mut inspect),
            Some(&mut control),
            start_run..planned_end.max(start_run),
            seed,
        )
        .map_err(CellError::Recorded)?;
    if let Some(error) = sink_error {
        return Err(CellError::Fatal(error));
    }
    if let Some(error) = coord_error {
        return Err(CellError::Recorded(format!("coordinator: {error}")));
    }
    let snapshot = snapshot_slot
        .into_inner()
        .expect("snapshot slot")
        .expect("warm inspection runs before measuring");
    if let Some(resumed) = resumed_snapshot {
        if resumed != snapshot {
            return Err(CellError::Fatal(format!(
                "cell {:?}: the re-warmed snapshot (digest {:#018x}) does not match the \
                 checkpoint's ({:#018x}) — the checkpoint was produced by a different \
                 scenario file, seed or binary; delete it and re-run the shard without \
                 --resume",
                cell.label, snapshot.digest, resumed.digest
            )));
        }
    }
    let mut runs = prefix_runs;
    runs.extend(campaign.runs);
    let mut failures = prefix_failures;
    failures.extend(campaign.failures);
    let mut window_traffic = prefix_window;
    window_traffic.merge(&campaign.traffic.since(&campaign.warmup_traffic));
    // A local rule that fired on the last planned run consumed the whole
    // budget: not an early stop.
    let mut stop_at = local_stop_at.filter(|&s| s < plan.run_end);
    if let Some((coordinator, _)) = coordination {
        // The end-of-cell barrier: no shard finalizes a slice until the
        // cell's stop decision exists, so every part in the fleet agrees
        // on the exact prefix the merge reassembles.
        let decision = match known_decision {
            Some(decision) => decision,
            None => {
                let _timer = crate::obs::coord_wait_seconds().start_timer();
                coordinator
                    .wait(cell_index)
                    .map_err(|e| CellError::Recorded(format!("coordinator: {e}")))?
            }
        };
        stop_at = decision.stop_at;
        let kept_end = plan.kept_range(stop_at).end;
        if kept_end < plan.run_end {
            crate::obs::coord_runs_saved_total().add((plan.run_end - kept_end) as u64);
            runs.retain(|r| r.run_index < kept_end);
            failures.retain(|f| f.run_index < kept_end);
            window_traffic = if kept_end == plan.run_start {
                MessageStats::new()
            } else {
                // The stop index is a cadence boundary inside this shard's
                // range, so the window traffic was frozen when the fold
                // crossed it (live above, or in the checkpoint a resume
                // restored).
                boundary_traffic
                    .iter()
                    .find(|b| b.upto == kept_end)
                    .map(|b| b.traffic.clone())
                    .ok_or_else(|| {
                        CellError::Fatal(format!(
                            "cell {:?}: no frozen window traffic for stop index {kept_end} — \
                             coordinator cadence disagrees with the boundaries this shard \
                             crossed",
                            cell.label
                        ))
                    })?
            };
        }
    }
    Ok(CellShard::Campaign {
        slice: CampaignSlice {
            snapshot,
            runs,
            failures,
            window_traffic,
            stop_at,
        },
    })
}

/// Runs one paired adversarial cell's shard range: warm the cell twice
/// from the same recipe — once clean (an inert adversary force, so node
/// count and RNG consumption match the attacked side exactly), once with
/// the live attacker — and execute only `plan.run_range()` on each side.
/// The clean side runs first, matching
/// `adversarial_campaign_in_with_threads`' order.
fn run_paired_cell_shard(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    threads: usize,
    cell: &ScenarioCell,
    plan: ShardPlan,
) -> Result<CellShard, CellError> {
    let Workload::Adversarial {
        strategy,
        attackers,
    } = &scenario.workload
    else {
        return Err(CellError::Fatal(
            "paired shard dispatch on a non-adversarial workload".to_string(),
        ));
    };
    let cfg = scenario.cell_config(cell);
    let side = |force: AdversaryForce| -> Result<(CampaignSlice, WarmInfiltration), CellError> {
        let slot: Mutex<Option<(WarmSnapshot, WarmInfiltration)>> = Mutex::new(None);
        let mut inspect = |net: &Network| {
            *slot.lock().expect("snapshot slot") = Some((
                WarmSnapshot::capture(&cfg, net),
                WarmInfiltration::measure(net),
            ));
        };
        let campaign = cfg
            .run_campaign_range(
                registry,
                threads,
                Some(Box::new(force)),
                None,
                Some(&mut inspect),
                None,
                plan.run_range(),
                FoldedPrefix::new(),
            )
            .map_err(CellError::Recorded)?;
        let (snapshot, infiltration) = slot
            .into_inner()
            .expect("snapshot slot")
            .expect("warm inspection runs before measuring");
        let window_traffic = campaign.traffic.since(&campaign.warmup_traffic);
        Ok((
            CampaignSlice {
                snapshot,
                runs: campaign.runs,
                failures: campaign.failures,
                window_traffic,
                stop_at: None,
            },
            infiltration,
        ))
    };
    let inert =
        AdversaryForce::inert(cfg.net.num_nodes, *attackers).map_err(CellError::Recorded)?;
    let force = AdversaryForce::new(*strategy, cfg.net.num_nodes, *attackers)
        .map_err(CellError::Recorded)?;
    let (clean, clean_infiltration) = side(inert)?;
    let (attacked, infiltration) = side(force)?;
    Ok(CellShard::Paired {
        clean,
        attacked,
        infiltration,
        clean_infiltration,
    })
}

/// Runs one mining cell's shard range: warm the cell, capture the
/// snapshot, and mine only `plan.run_range()` — each mining run reseeds
/// from `(seed, run_index)` against a clone of the warmed base, so a
/// range is exactly the corresponding slice of the whole campaign.
fn run_mining_cell_shard(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
    cell: &ScenarioCell,
    plan: ShardPlan,
) -> Result<CellShard, CellError> {
    let Workload::Mining {
        block_interval_ms,
        duration_ms,
    } = &scenario.workload
    else {
        return Err(CellError::Fatal(
            "mining shard dispatch on a non-mining workload".to_string(),
        ));
    };
    let cfg = scenario.cell_config(cell);
    let (net, warmup_traffic) = mining_warm(registry, &cfg).map_err(CellError::Recorded)?;
    let snapshot = WarmSnapshot::capture(&cfg, &net);
    let runs = mine_range(
        &net,
        &warmup_traffic,
        &cfg,
        *block_interval_ms,
        *duration_ms,
        plan.run_range(),
    );
    // Observability side channel only, once per cell like every other
    // campaign: warmup plus this shard's mining windows.
    let mut traffic = warmup_traffic;
    for run in &runs {
        traffic.merge(&run.window_traffic);
    }
    crate::obs::net_bytes_total().add(traffic.total_bytes());
    crate::obs::net_redundant_bytes_total().add(traffic.total_redundant_bytes());
    Ok(CellShard::Mining {
        snapshot,
        relay: cfg.relay.as_ref().map(|r| r.to_string()),
        runs,
    })
}

/// Merges shard parts, **in shard order**, into the [`ScenarioOutcome`]
/// the unsharded [`Scenario::run`] would have produced —
/// byte-identically. Consumes the parts (run vectors are moved, not
/// cloned — at paper scale they dominate the part's size); callers that
/// need to keep a part clone it first.
///
/// # Errors
///
/// Rejects: an empty part list; a part that fails
/// [`Sealed::verify_seal`] (wire-format version skew, or a digest that
/// does not match the contents); parts from different scenarios (name or
/// [`Scenario::digest`]) or disagreeing on the `runs` budget;
/// inconsistent shard counts; parts passed out of shard order, missing
/// or duplicated; a part whose plan differs from the one recomputed from
/// `(scenario_runs, shard_index, shard_count)` — so an edited lone part
/// cannot pose as a whole campaign; per-cell warm-snapshot mismatches
/// (shards that warmed to different states); and runs outside their
/// shard's kept range or out of order.
pub fn merge_shards(mut parts: Vec<PartialOutcome>) -> Result<ScenarioOutcome, String> {
    let first = parts
        .first()
        .ok_or_else(|| "no shard parts to merge".to_string())?;
    let count = first.plan.shard_count;
    let scenario = first.scenario.clone();
    let scenario_digest = first.scenario_digest;
    let scenario_runs = first.scenario_runs;
    let workload = first.workload.clone();
    let cell_count = first.cells.len();
    if parts.len() != count {
        return Err(format!(
            "incomplete merge: the plan has {count} shard(s) but {} part(s) were given",
            parts.len()
        ));
    }
    let verify_span = bcbpt_obs::span("merge_verify");
    let verify_timer = std::time::Instant::now();
    for (position, part) in parts.iter().enumerate() {
        part.verify_seal()
            .map_err(|e| format!("part for shard {}: {e}", part.plan.shard_index))?;
        if part.scenario != scenario || part.scenario_digest != scenario_digest {
            return Err(format!(
                "parts mix different scenarios: {scenario:?} (digest {scenario_digest:#018x}) \
                 vs {:?} (digest {:#018x})",
                part.scenario, part.scenario_digest
            ));
        }
        if part.plan.shard_count != count {
            return Err(format!(
                "parts disagree on the shard count: {} vs {count}",
                part.plan.shard_count
            ));
        }
        if part.scenario_runs != scenario_runs {
            return Err(format!(
                "parts disagree on the scenario's runs budget: {} vs {scenario_runs}",
                part.scenario_runs
            ));
        }
        if part.plan.shard_index != position {
            return Err(format!(
                "shard parts out of order: position {position} holds shard {}/{count} — pass \
                 the part files in ascending shard order (part-0, part-1, …)",
                part.plan.shard_index
            ));
        }
        // Plans are a pure function of (runs, index, count): recompute and
        // compare, so the union of ranges provably covers 0..runs and a
        // part edited to claim a different slice (or to pose as the whole
        // campaign) is rejected rather than silently truncating the merge.
        let expected = ShardPlan::for_shard(scenario_runs, ShardSpec::new(position, count)?)?;
        if part.plan != expected {
            return Err(format!(
                "shard {position} carries plan {}..{} but a {count}-shard split of \
                 {scenario_runs} run(s) assigns it {}..{} — the part was edited or produced \
                 by an incompatible planner",
                part.plan.run_start, part.plan.run_end, expected.run_start, expected.run_end
            ));
        }
        if part.cells.len() != cell_count {
            return Err(format!(
                "shard {position} carries {} cell(s), shard 0 carries {cell_count} — \
                 different sweeps?",
                part.cells.len(),
            ));
        }
    }
    crate::obs::merge_verify_seconds().observe(verify_timer.elapsed());
    drop(verify_span);
    let mut cells = Vec::with_capacity(cell_count);
    for cell_index in 0..cell_count {
        cells.push(merge_cell(&mut parts, cell_index, &workload)?);
    }
    Ok(ScenarioOutcome::new(scenario, workload, cells))
}

/// Merges one cell across all parts (see [`merge_shards`] for the
/// checks), taking ownership of the cell's shard data.
fn merge_cell(
    parts: &mut [PartialOutcome],
    cell_index: usize,
    workload: &Workload,
) -> Result<CellOutcome, String> {
    let head = &parts[0].cells[cell_index];
    let label = head.label.clone();
    let protocol = head.protocol.clone();
    let num_nodes = head.num_nodes;
    for part in &parts[1..] {
        let cell = &part.cells[cell_index];
        if cell.label != label || cell.protocol != protocol {
            return Err(format!(
                "cell {cell_index} differs across shards: {label:?} vs {:?}",
                cell.label
            ));
        }
    }
    // Take ownership of every shard's contribution (run vectors are
    // moved, not cloned — each cell is visited exactly once).
    let shards: Vec<(ShardPlan, CellShard)> = parts
        .iter_mut()
        .map(|part| {
            (
                part.plan,
                std::mem::replace(
                    &mut part.cells[cell_index].part,
                    CellShard::Failed {
                        error: "merged".to_string(),
                    },
                ),
            )
        })
        .collect();
    merge_cell_shards(shards, workload, label, protocol, num_nodes)
}

/// The one place shard contributions become a [`CellOutcome`]: the
/// per-mode merge over every shard's part of one cell, in shard order.
/// [`merge_shards`] calls it with one part per shard process; an
/// in-process run and every `CellCompleted` event call it with the single
/// part of the plan at hand.
fn merge_cell_shards(
    shards: Vec<(ShardPlan, CellShard)>,
    workload: &Workload,
    label: String,
    protocol: String,
    num_nodes: usize,
) -> Result<CellOutcome, String> {
    // A failed cell on any shard fails the merged cell, with the
    // lowest-shard error — deterministic runs fail identically on every
    // shard.
    if let Some(error) = shards.iter().find_map(|(_, part)| match part {
        CellShard::Failed { error } => Some(error.clone()),
        _ => None,
    }) {
        return Ok(CellOutcome::new(
            label,
            protocol,
            num_nodes,
            CellReport::Failed { error },
        ));
    }
    match shards[0].1 {
        CellShard::Campaign { .. } => {
            merge_campaign_cell(shards, workload, label, protocol, num_nodes)
        }
        CellShard::Paired { .. } => merge_paired_cell(shards, workload, label, protocol, num_nodes),
        CellShard::Mining { .. } => merge_mining_cell(shards, label, protocol, num_nodes),
        CellShard::Replicated { .. } => merge_replicated_cell(shards, label, protocol, num_nodes),
        CellShard::Failed { .. } => unreachable!("failed cells are handled above"),
    }
}

/// Verifies one shard's warm-snapshot envelope and requires it to equal
/// the one every earlier shard of the cell carried (kept in `agreed`).
fn agree_on_snapshot(
    agreed: &mut Option<WarmSnapshot>,
    snapshot: WarmSnapshot,
    label: &str,
    plan: ShardPlan,
) -> Result<(), String> {
    snapshot
        .verify_seal()
        .map_err(|e| format!("cell {label:?}, shard {}: {e}", plan.shard_index))?;
    match agreed {
        Some(reference) if *reference != snapshot => Err(format!(
            "cell {label:?}: shard {} warmed to a different snapshot (digest {:#018x} vs \
             {:#018x}) — were the parts produced by different scenario files, seeds or \
             binaries?",
            plan.shard_index, snapshot.digest, reference.digest
        )),
        Some(_) => Ok(()),
        None => {
            *agreed = Some(snapshot);
            Ok(())
        }
    }
}

/// Folds the campaign slices of one cell, shard by shard in shard order —
/// the cross-process continuation of the in-process `CampaignFold`: run
/// vectors concatenate (moved, not cloned) in run-index order and integer
/// traffic counters add. Every slice must carry the same stop index.
fn merge_slices(
    shards: Vec<(ShardPlan, CampaignSlice)>,
    label: &str,
) -> Result<CampaignResult, String> {
    let mut snapshot: Option<WarmSnapshot> = None;
    let mut stop_at: Option<Option<usize>> = None;
    let mut runs: Vec<RunResult> = Vec::new();
    let mut failures: Vec<RunFailure> = Vec::new();
    let mut window_sum = MessageStats::new();
    for (plan, slice) in shards {
        let CampaignSlice {
            snapshot: shard_snapshot,
            runs: shard_runs,
            failures: shard_failures,
            window_traffic,
            stop_at: shard_stop,
        } = slice;
        agree_on_snapshot(&mut snapshot, shard_snapshot, label, plan)?;
        // A coordinated stop is one decision for the whole cell: every
        // slice must carry the same index, and no slice may keep a run
        // at or past it — otherwise the merge would not be the strict
        // prefix the decision promised.
        match &stop_at {
            None => stop_at = Some(shard_stop),
            Some(reference) => {
                if *reference != shard_stop {
                    return Err(format!(
                        "cell {label:?}: shards disagree on the coordinated stop index \
                         ({reference:?} vs {shard_stop:?} on shard {}) — the parts were \
                         produced under different stop decisions",
                        plan.shard_index
                    ));
                }
            }
        }
        let range = plan.run_range();
        let effective_end = plan.kept_range(shard_stop).end;
        let mut prev: Option<usize> = None;
        for run in shard_runs.iter() {
            if !range.contains(&run.run_index) {
                return Err(format!(
                    "cell {label:?}: shard {} reports run {} outside its range {}..{}",
                    plan.shard_index, run.run_index, range.start, range.end
                ));
            }
            if run.run_index >= effective_end {
                return Err(format!(
                    "cell {label:?}: shard {} reports run {} at or past the coordinated \
                     stop index {effective_end}",
                    plan.shard_index, run.run_index
                ));
            }
            if prev.is_some_and(|p| run.run_index <= p) {
                return Err(format!(
                    "cell {label:?}: shard {} runs are not in ascending run-index order",
                    plan.shard_index
                ));
            }
            prev = Some(run.run_index);
        }
        let mut prev_failure: Option<usize> = None;
        for failure in shard_failures.iter() {
            if !range.contains(&failure.run_index) || failure.run_index >= effective_end {
                return Err(format!(
                    "cell {label:?}: shard {} reports a failure at run {} outside its \
                     range {}..{}",
                    plan.shard_index,
                    failure.run_index,
                    range.start,
                    range.end.min(effective_end)
                ));
            }
            if prev_failure.is_some_and(|p| failure.run_index <= p) {
                return Err(format!(
                    "cell {label:?}: shard {} failures are not in ascending run-index order",
                    plan.shard_index
                ));
            }
            prev_failure = Some(failure.run_index);
        }
        runs.extend(shard_runs);
        failures.extend(shard_failures);
        window_sum.merge(&window_traffic);
    }
    let snapshot = snapshot.expect("at least one part exists");
    let mut traffic = snapshot.warmup_traffic.clone();
    traffic.merge(&window_sum);
    Ok(CampaignResult {
        protocol: snapshot.protocol.clone(),
        runs,
        traffic,
        warmup_traffic: snapshot.warmup_traffic.clone(),
        cluster_sizes: snapshot.cluster_sizes.clone(),
        num_nodes: snapshot.num_nodes,
        failures,
    })
}

/// Merges one streaming campaign cell: unwrap each shard's slice, fold
/// via [`merge_slices`], and shape the report after the workload.
fn merge_campaign_cell(
    shards: Vec<(ShardPlan, CellShard)>,
    workload: &Workload,
    label: String,
    protocol: String,
    num_nodes: usize,
) -> Result<CellOutcome, String> {
    let slices = shards
        .into_iter()
        .map(|(plan, part)| match part {
            CellShard::Campaign { slice } => Ok((plan, slice)),
            _ => Err(format!(
                "cell {label:?}: shard {} carries a non-campaign part for a campaign cell",
                plan.shard_index
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let campaign = merge_slices(slices, &label)?;
    let report = match workload {
        Workload::OverheadProbe => CellReport::Overhead {
            report: OverheadReport::from_campaign(&campaign),
        },
        _ => CellReport::Campaign { campaign },
    };
    Ok(CellOutcome::new(label, protocol, num_nodes, report))
}

/// Merges one paired adversarial cell: fold the clean and attacked sides
/// independently via [`merge_slices`], cross-check the warm-time
/// infiltration measurements (pure warm-state functions — every shard
/// must have measured the same), then assemble the report through the
/// same arithmetic `adversarial_campaign` uses.
fn merge_paired_cell(
    shards: Vec<(ShardPlan, CellShard)>,
    workload: &Workload,
    label: String,
    protocol: String,
    num_nodes: usize,
) -> Result<CellOutcome, String> {
    let Workload::Adversarial {
        strategy,
        attackers,
    } = workload
    else {
        return Err(format!(
            "cell {label:?}: paired shard parts under a non-adversarial workload"
        ));
    };
    let mut cleans = Vec::with_capacity(shards.len());
    let mut attackeds = Vec::with_capacity(shards.len());
    let mut reference: Option<(WarmInfiltration, WarmInfiltration)> = None;
    for (plan, part) in shards {
        let CellShard::Paired {
            clean,
            attacked,
            infiltration,
            clean_infiltration,
        } = part
        else {
            return Err(format!(
                "cell {label:?}: shard {} carries a non-paired part for an adversarial cell",
                plan.shard_index
            ));
        };
        match &reference {
            None => reference = Some((infiltration, clean_infiltration)),
            Some((i, c)) => {
                if *i != infiltration || *c != clean_infiltration {
                    return Err(format!(
                        "cell {label:?}: shard {} measured a different warm-time \
                         infiltration — were the parts produced by different scenario \
                         files, seeds or binaries?",
                        plan.shard_index
                    ));
                }
            }
        }
        cleans.push((plan, clean));
        attackeds.push((plan, attacked));
    }
    let (infiltration, clean_infiltration) = reference.expect("at least one part exists");
    let clean = merge_slices(cleans, &label)?;
    let attacked = merge_slices(attackeds, &label)?;
    let report = assemble_report(
        attacked.protocol.clone(),
        strategy.label(),
        *attackers,
        infiltration,
        clean_infiltration,
        &clean,
        attacked,
    );
    Ok(CellOutcome::new(
        label,
        protocol,
        num_nodes,
        CellReport::Adversary { report },
    ))
}

/// Merges one range-sharded mining cell: verify every shard mined off the
/// same snapshot with the same relay, concatenate the fork runs (each
/// range covers its plan exactly — mining runs cannot fail), and total
/// the traffic as warmup plus every run's window, exactly like
/// `mining_campaign_in`.
fn merge_mining_cell(
    shards: Vec<(ShardPlan, CellShard)>,
    label: String,
    protocol: String,
    num_nodes: usize,
) -> Result<CellOutcome, String> {
    let mut snapshot: Option<WarmSnapshot> = None;
    let mut relay: Option<Option<String>> = None;
    let mut all_runs: Vec<ForkRun> = Vec::new();
    for (plan, part) in shards {
        let CellShard::Mining {
            snapshot: shard_snapshot,
            relay: shard_relay,
            runs,
        } = part
        else {
            return Err(format!(
                "cell {label:?}: shard {} carries a non-mining part for a mining cell",
                plan.shard_index
            ));
        };
        agree_on_snapshot(&mut snapshot, shard_snapshot, &label, plan)?;
        match &relay {
            None => relay = Some(shard_relay),
            Some(reference) => {
                if *reference != shard_relay {
                    return Err(format!(
                        "cell {label:?}: shards disagree on the relay strategy \
                         ({reference:?} vs {shard_relay:?} on shard {})",
                        plan.shard_index
                    ));
                }
            }
        }
        // Mining runs cannot fail, so a slice must cover its range
        // exactly: one run per planned index, in order.
        if runs.len() != plan.len() {
            return Err(format!(
                "cell {label:?}: shard {} carries {} mining run(s) for a range of {} — \
                 the part file is inconsistent",
                plan.shard_index,
                runs.len(),
                plan.len()
            ));
        }
        for (offset, run) in runs.iter().enumerate() {
            if run.run_index != plan.run_start + offset {
                return Err(format!(
                    "cell {label:?}: shard {} mining run at position {offset} carries \
                     run index {} (expected {})",
                    plan.shard_index,
                    run.run_index,
                    plan.run_start + offset
                ));
            }
        }
        all_runs.extend(runs);
    }
    let snapshot = snapshot.expect("at least one part exists");
    let relay = relay.expect("at least one part exists");
    let mut total = snapshot.warmup_traffic.clone();
    for run in &all_runs {
        total.merge(&run.window_traffic);
    }
    let report = fork_report_from_runs(snapshot.protocol.clone(), relay, &all_runs, &total);
    Ok(CellOutcome::new(
        label,
        protocol,
        num_nodes,
        CellReport::Forks { report },
    ))
}

/// Merges one replicated cell: every shard executed the deterministic
/// cell whole, so all reports must be byte-identical (compared on their
/// canonical serialization — NaN-safe) and shard 0's is kept.
fn merge_replicated_cell(
    shards: Vec<(ShardPlan, CellShard)>,
    label: String,
    protocol: String,
    num_nodes: usize,
) -> Result<CellOutcome, String> {
    let mut kept: Option<(CellReport, String)> = None;
    for (plan, part) in shards {
        let CellShard::Replicated { report } = part else {
            return Err(format!(
                "cell {label:?}: shard {} carries a non-replicated part for a \
                 single-shot cell",
                plan.shard_index
            ));
        };
        let json = serde_json::to_string(&report).expect("cell report serializes");
        match &kept {
            None => kept = Some((report, json)),
            Some((_, reference)) => {
                if *reference != json {
                    return Err(format!(
                        "cell {label:?}: shard {} replicated a different result than \
                         shard 0 — the cell is not deterministic across the parts \
                         (different scenario files, seeds or binaries?)",
                        plan.shard_index
                    ));
                }
            }
        }
    }
    let (report, _) = kept.expect("at least one part exists");
    Ok(CellOutcome::new(label, protocol, num_nodes, report))
}

/// Salvaging [`merge_shards`]: instead of aborting on the first bad part,
/// quarantine every part that is unreadable, unparseable, seal-broken,
/// version-mismatched, or inconsistent with the consensus of the rest —
/// then merge what survives. When every shard index still has a valid
/// part, the merged outcome is returned (identical to what
/// [`merge_shards`] over clean parts produces); otherwise the report
/// carries a [`RepairPlan`] naming the exact `--shard i/N` re-runs that
/// complete the set.
///
/// `sources` pairs each part with its origin label (file path); `Err`
/// entries carry the read/parse failure the caller hit and are
/// quarantined with that reason. `scenario_path` is echoed into the
/// repair commands.
///
/// # Errors
///
/// Only when nothing can be salvaged at all: an empty source list, every
/// part quarantined, or the surviving set failing a deep merge check
/// that quarantining cannot attribute to one part.
pub fn salvage_merge(
    sources: Vec<(String, Result<PartialOutcome, String>)>,
    scenario_path: &str,
) -> Result<SalvageReport, String> {
    if sources.is_empty() {
        return Err("no shard parts to salvage".to_string());
    }
    let mut quarantined: Vec<QuarantinedPart> = Vec::new();
    let mut survivors: Vec<(String, PartialOutcome)> = Vec::new();
    for (source, result) in sources {
        let part = match result {
            Ok(part) => part,
            Err(reason) => {
                quarantined.push(QuarantinedPart {
                    source,
                    shard_index: None,
                    reason,
                });
                continue;
            }
        };
        if let Err(reason) = part.verify_seal() {
            quarantined.push(QuarantinedPart {
                source,
                shard_index: Some(part.plan.shard_index),
                reason,
            });
            continue;
        }
        survivors.push((source, part));
    }
    // Consensus on the campaign identity: (scenario, digest, runs budget,
    // shard count, cell count). Majority wins; ties break toward the
    // earliest source, so a lone healthy part still anchors the merge.
    type IdentityKey = (String, u64, usize, usize, usize);
    let identity = |p: &PartialOutcome| -> IdentityKey {
        (
            p.scenario.clone(),
            p.scenario_digest,
            p.scenario_runs,
            p.plan.shard_count,
            p.cells.len(),
        )
    };
    let consensus = {
        let mut tally: Vec<(IdentityKey, usize, usize)> = Vec::new();
        for (position, (_, part)) in survivors.iter().enumerate() {
            let key = identity(part);
            match tally.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, count, _)) => *count += 1,
                None => tally.push((key, 1, position)),
            }
        }
        tally
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
            .map(|(key, _, _)| key)
    };
    let Some(consensus) = consensus else {
        return Err(format!(
            "salvage merge: every part was quarantined, nothing to merge:\n{}",
            quarantine_lines(&quarantined)
        ));
    };
    let (scenario, _, scenario_runs, shard_count, _) = consensus.clone();
    survivors.retain(|(source, part)| {
        if identity(part) == consensus {
            return true;
        }
        quarantined.push(QuarantinedPart {
            source: source.clone(),
            shard_index: Some(part.plan.shard_index),
            reason: format!(
                "disagrees with the majority of parts on the campaign identity \
                 (scenario {:?}, digest {:#018x}, {} run(s), {} shard(s), {} cell(s))",
                part.scenario,
                part.scenario_digest,
                part.scenario_runs,
                part.plan.shard_count,
                part.cells.len()
            ),
        });
        false
    });
    // Plan sanity and duplicate shard indices (first in source order wins).
    let mut seen_indices: Vec<usize> = Vec::new();
    survivors.retain(|(source, part)| {
        let index = part.plan.shard_index;
        let expected = ShardSpec::new(index, shard_count)
            .and_then(|spec| ShardPlan::for_shard(scenario_runs, spec));
        match expected {
            Ok(expected) if expected == part.plan => {}
            Ok(expected) => {
                quarantined.push(QuarantinedPart {
                    source: source.clone(),
                    shard_index: Some(index),
                    reason: format!(
                        "carries plan {}..{} but a {shard_count}-shard split of \
                         {scenario_runs} run(s) assigns shard {index} {}..{}",
                        part.plan.run_start,
                        part.plan.run_end,
                        expected.run_start,
                        expected.run_end
                    ),
                });
                return false;
            }
            Err(reason) => {
                quarantined.push(QuarantinedPart {
                    source: source.clone(),
                    shard_index: Some(index),
                    reason,
                });
                return false;
            }
        }
        if seen_indices.contains(&index) {
            quarantined.push(QuarantinedPart {
                source: source.clone(),
                shard_index: Some(index),
                reason: format!(
                    "duplicate part for shard {index} (an earlier source already covers it)"
                ),
            });
            return false;
        }
        seen_indices.push(index);
        true
    });
    // Per-cell warm-snapshot consensus: a part that warmed to a different
    // state (different binary or diverged replay) is quarantined instead
    // of failing the whole merge.
    let cell_count = survivors.first().map_or(0, |(_, p)| p.cells.len());
    for cell_index in 0..cell_count {
        let digest_of = |part: &PartialOutcome| match &part.cells[cell_index].part {
            CellShard::Campaign { slice } => Some(slice.snapshot.digest),
            CellShard::Paired { attacked, .. } => Some(attacked.snapshot.digest),
            CellShard::Mining { snapshot, .. } => Some(snapshot.digest),
            CellShard::Replicated { .. } | CellShard::Failed { .. } => None,
        };
        let mut tally: Vec<(u64, usize, usize)> = Vec::new();
        for (position, (_, part)) in survivors.iter().enumerate() {
            if let Some(digest) = digest_of(part) {
                match tally.iter_mut().find(|(d, _, _)| *d == digest) {
                    Some((_, count, _)) => *count += 1,
                    None => tally.push((digest, 1, position)),
                }
            }
        }
        let Some((majority, _, _)) = tally
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
        else {
            continue; // no campaign carriers for this cell
        };
        survivors.retain(|(source, part)| {
            let Some(digest) = digest_of(part) else {
                return true;
            };
            if digest == majority {
                return true;
            }
            quarantined.push(QuarantinedPart {
                source: source.clone(),
                shard_index: Some(part.plan.shard_index),
                reason: format!(
                    "cell {cell_index} warmed to snapshot digest {digest:#018x}, but the \
                     majority of parts agree on {majority:#018x}"
                ),
            });
            false
        });
    }
    if survivors.is_empty() {
        return Err(format!(
            "salvage merge: every part was quarantined, nothing to merge:\n{}",
            quarantine_lines(&quarantined)
        ));
    }
    let missing_shards: Vec<usize> = (0..shard_count)
        .filter(|i| !survivors.iter().any(|(_, p)| p.plan.shard_index == *i))
        .collect();
    if missing_shards.is_empty() {
        let mut parts: Vec<PartialOutcome> = survivors.into_iter().map(|(_, p)| p).collect();
        parts.sort_by_key(|p| p.plan.shard_index);
        let outcome = merge_shards(parts)
            .map_err(|e| format!("salvage merge: the surviving parts still do not merge: {e}"))?;
        return Ok(SalvageReport {
            outcome: Some(outcome),
            quarantined,
            repair: None,
        });
    }
    let commands = missing_shards
        .iter()
        .map(|&index| {
            let out = quarantined
                .iter()
                .find(|q| q.shard_index == Some(index))
                .map_or_else(|| format!("part-{index}.json"), |q| q.source.clone());
            format!("scenario shard run {scenario_path} --shard {index}/{shard_count} --out {out}")
        })
        .collect();
    Ok(SalvageReport {
        outcome: None,
        quarantined: quarantined.clone(),
        repair: Some(RepairPlan {
            scenario,
            shard_count,
            quarantined,
            missing_shards,
            commands,
        }),
    })
}

/// One indented line per quarantined part, for error messages.
fn quarantine_lines(quarantined: &[QuarantinedPart]) -> String {
    quarantined
        .iter()
        .map(|q| format!("  {}: {}", q.source, q.reason))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use bcbpt_cluster::Protocol;

    fn tiny(runs: usize) -> Scenario {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 60;
        base.warmup_ms = 1_000.0;
        base.window_ms = 15_000.0;
        base.runs = runs;
        Scenario::from_experiment("tiny-shard", &base, Workload::TxFlood)
    }

    fn shard_all(scenario: &Scenario, count: usize) -> Vec<PartialOutcome> {
        (0..count)
            .map(|i| run_shard(scenario, ShardSpec::new(i, count).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("2/5").unwrap(),
            ShardSpec::new(2, 5).unwrap()
        );
        assert_eq!(ShardSpec::parse("0/1").unwrap().to_string(), "0/1");
        for bad in ["", "3", "a/b", "1/0", "5/5", "7/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn plans_are_disjoint_contiguous_and_balanced() {
        for (runs, count) in [(10, 3), (4, 5), (0, 2), (1000, 7), (5, 1)] {
            let plans = ShardPlan::plan(runs, count).unwrap();
            assert_eq!(plans.len(), count);
            let mut covered = 0;
            for (i, plan) in plans.iter().enumerate() {
                assert_eq!(plan.shard_index, i);
                assert_eq!(plan.shard_count, count);
                assert_eq!(plan.run_start, covered, "ranges must be contiguous");
                covered = plan.run_end;
                assert!(plan.len() <= runs / count + 1, "balanced to within one");
                assert_eq!(
                    plan,
                    &ShardPlan::for_shard(runs, ShardSpec::new(i, count).unwrap()).unwrap()
                );
            }
            assert_eq!(covered, runs, "ranges must cover 0..runs exactly");
        }
        assert!(ShardPlan::plan(10, 0).is_err());
    }

    #[test]
    fn multi_shard_merge_matches_batch_and_preserves_ecdf_order() {
        let scenario = tiny(5);
        let batch = scenario.run_batch().unwrap();
        for count in [2usize, 3, 5] {
            let parts = shard_all(&scenario, count);
            let merged = merge_shards(parts).unwrap();
            assert_eq!(merged, batch, "{count} shards diverged from batch");
            // The cached ECDF accessor of the merged outcome must agree
            // bitwise with the batch recompute (sample order preserved
            // across every shard boundary).
            assert_eq!(
                merged.cells[0].delta_ecdf(),
                batch.cells[0].delta_ecdf(),
                "{count} shards reordered the sample stream"
            );
        }
    }

    #[test]
    fn more_shards_than_runs_produces_empty_shards_that_still_merge() {
        let scenario = tiny(3);
        let parts = shard_all(&scenario, 5);
        assert!(parts[3].plan.is_empty() && parts[4].plan.is_empty());
        let CellShard::Campaign { slice } = &parts[4].cells[0].part else {
            panic!("empty shard still carries a campaign part");
        };
        assert!(slice.runs.is_empty());
        let merged = merge_shards(parts).unwrap();
        assert_eq!(merged, scenario.run_batch().unwrap());
    }

    #[test]
    fn out_of_order_parts_are_rejected() {
        let scenario = tiny(4);
        let mut parts = shard_all(&scenario, 2);
        parts.swap(0, 1);
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn missing_and_duplicated_parts_are_rejected() {
        let scenario = tiny(4);
        let parts = shard_all(&scenario, 3);
        let err = merge_shards(parts[..2].to_vec()).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        let duplicated = vec![parts[0].clone(), parts[0].clone(), parts[2].clone()];
        let err = merge_shards(duplicated).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        assert!(merge_shards(Vec::new())
            .unwrap_err()
            .contains("no shard parts"));
    }

    #[test]
    fn mixed_scenarios_are_rejected() {
        let a = tiny(4);
        let mut b = tiny(4);
        b.seed += 1;
        let parts = vec![
            run_shard(&a, ShardSpec::new(0, 2).unwrap()).unwrap(),
            run_shard(&b, ShardSpec::new(1, 2).unwrap()).unwrap(),
        ];
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("different scenarios"), "{err}");
    }

    #[test]
    fn tampered_parts_are_rejected_by_the_digest() {
        let scenario = tiny(4);
        // Any edit that is not re-sealed trips the whole-part seal first.
        let mut parts = shard_all(&scenario, 2);
        if let CellShard::Campaign { slice } = &mut parts[1].cells[0].part {
            slice.snapshot.online += 1;
        }
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("part digest"), "{err}");

        // Re-sealing the edited part gets past the outer seal; the warm
        // snapshot's own digest still catches the tamper.
        let mut parts = shard_all(&scenario, 2);
        if let CellShard::Campaign { slice } = &mut parts[1].cells[0].part {
            slice.snapshot.online += 1;
        }
        parts[1].seal();
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("warm snapshot digest"), "{err}");

        // A version from the future is rejected before anything merges.
        let mut parts = shard_all(&scenario, 2);
        parts[1].version += 1;
        parts[1].seal();
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn a_lone_part_cannot_pose_as_the_whole_campaign() {
        // Editing part 0's plan to claim shard_count == 1 must not let a
        // half-campaign merge pass as complete: the merge recomputes the
        // plan from the carried runs budget and refuses the mismatch.
        let scenario = tiny(4);
        let parts = shard_all(&scenario, 2);
        let mut lone = parts[0].clone();
        lone.plan.shard_count = 1;
        lone.seal();
        let err = merge_shards(vec![lone]).unwrap_err();
        assert!(err.contains("assigns it"), "{err}");

        // Parts that disagree on the runs budget are caught before any
        // cell merges.
        let mut parts = shard_all(&scenario, 2);
        parts[1].scenario_runs = 2;
        parts[1].seal();
        let err = merge_shards(parts).unwrap_err();
        assert!(err.contains("runs budget"), "{err}");
    }

    /// The slice a PR 13 (format v3) binary wrote for the one run of a
    /// 10-node `v3-literal` scenario, with the accumulators and the
    /// `runs_used` count that v4 dropped.
    const V3_SLICE: &str = r#""snapshot":{"version":3,"protocol":"bitcoin","num_nodes":10,"seed":48313,"warmup_ms":200.0,"window_ms":1000.0,"online":10,"warmup_traffic":{"counts":{"Version":45,"Verack":45,"GetAddr":20,"Addr":20},"bytes":{"Version":4950,"Verack":1080,"GetAddr":480,"Addr":5300},"withheld":{}},"cluster_sizes":[],"digest":17593532630840512802},"runs":[{"run_index":0,"origin":1,"deltas_ms":[362.328,295.61,286.893,335.847,288.721,243.107,394.035,343.405],"arrival_delays_ms":[335.385,283.997,218.741,314.075,265.809,235.907,307.982,313.356,109.701],"reached":9,"online":10}],"failures":[],"window_traffic":{"counts":{"GetAddr":99,"Addr":99,"Inv":72,"GetData":8,"Tx":9},"bytes":{"GetAddr":2376,"Addr":26235,"Inv":4392,"GetData":488,"Tx":4716},"withheld":{}},"deltas":{"summary":{"count":8,"mean":318.74325000000005,"m2":16640.981717499995,"min":243.107,"max":394.035}},"run_means":{"summary":{"count":1,"mean":318.74325,"m2":0.0,"min":318.74325,"max":318.74325}},"ecdf":{"samples":[362.328,295.61,286.893,335.847,288.721,243.107,394.035,343.405]}"#;
    const V3_HEAD: &str =
        r#""version":3,"scenario":"v3-literal","scenario_digest":4701204051680109327"#;
    const V3_PLAN: &str =
        r#""scenario_runs":1,"plan":{"shard_index":0,"shard_count":1,"run_start":0,"run_end":1}"#;

    fn v3_part() -> PartialOutcome {
        let cell = format!(
            r#"{{"label":"bitcoin","protocol":"bitcoin","num_nodes":10,"part":{{"Campaign":{{"slice":{{{V3_SLICE},"runs_used":1,"stop_at":null}}}}}}}}"#
        );
        PartialOutcome::from_json(&format!(
            r#"{{{V3_HEAD},"workload":"TxFlood",{V3_PLAN},"cells":[{cell}],"digest":5100961288751493244}}"#
        ))
        .expect("a v3 part still parses — the removed keys are ignored")
    }

    #[test]
    fn a_v3_part_is_refused_by_version_and_quarantined_by_salvage() {
        let err = merge_shards(vec![v3_part()]).unwrap_err();
        assert!(err.contains("part has wire-format version 3"), "{err}");
        let sources = vec![("old.json".to_string(), Ok(v3_part()))];
        let err = salvage_merge(sources, "s.json").unwrap_err();
        assert!(err.contains("every part was quarantined"), "{err}");
        assert!(
            err.contains("old.json: part has wire-format version 3"),
            "{err}"
        );
        // Beside healthy v4 parts it is quarantined and the rest merge.
        let scenario = tiny(2);
        let mut sources: Vec<_> = shard_all(&scenario, 2)
            .into_iter()
            .enumerate()
            .map(|(i, part)| (format!("part-{i}.json"), Ok(part)))
            .collect();
        sources.push(("old.json".to_string(), Ok(v3_part())));
        let report = salvage_merge(sources, "s.json").unwrap();
        assert_eq!(report.outcome, Some(scenario.run_batch().unwrap()));
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].source, "old.json");
        assert!(report.quarantined[0].reason.contains("version 3"));
    }

    /// The records a checkpointing run of `scenario` as shard `spec` hands
    /// its sink, and the part it returns.
    fn journaled(scenario: &Scenario, spec: ShardSpec) -> (PartialOutcome, Vec<Checkpoint>) {
        let mut records: Vec<Checkpoint> = Vec::new();
        let mut sink = |record: &Checkpoint| -> Result<(), String> {
            records.push(record.clone());
            Ok(())
        };
        let part = run_shard_with(
            scenario,
            spec,
            &ProtocolRegistry::builtins(),
            ShardRunOptions {
                sink: Some(&mut sink),
                ..ShardRunOptions::default()
            },
        )
        .unwrap();
        (part, records)
    }

    /// The journal file `records` make: one line each.
    fn journal_bytes(records: &[Checkpoint]) -> Vec<u8> {
        let lines = records.iter().map(|r| format!("{}\n", r.to_json()));
        lines.collect::<String>().into_bytes()
    }

    #[test]
    fn a_v4_whole_prefix_checkpoint_is_refused_by_its_version() {
        // What `--checkpoint` left behind before the journal: one indented
        // document, written by the PR 17 binary.
        let v4 = include_bytes!("../../../tests/fixtures/checkpoint-v4.json");
        let err = Journal::read(v4).unwrap_err();
        assert!(
            err.contains("checkpoint has wire-format version 4 but this binary speaks 5"),
            "{err}"
        );
        assert!(err.contains("without --resume"), "{err}");
    }

    #[test]
    fn the_journal_is_linear_in_the_folds_and_reads_back_to_the_part() {
        let scenario = tiny(6);
        let spec = ShardSpec::new(0, 1).unwrap();
        let (part, records) = journaled(&scenario, spec);
        assert_eq!(part, run_shard(&scenario, spec).unwrap());
        // Header, then per cell: warmed, one record per fold, done.
        let cells = part.cells.len();
        assert_eq!(records.len(), 1 + cells * (1 + 6 + 1));
        let bytes = journal_bytes(&records);
        assert!(
            bytes.len() < part.to_json().len(),
            "a journal of {} bytes for a part of {}",
            bytes.len(),
            part.to_json().len()
        );
        let journal = Journal::read(&bytes).unwrap();
        assert_eq!(journal.cells_done, part.cells);
        assert_eq!(journal.current, None);
        assert_eq!(journal.valid_len, bytes.len());
        assert_eq!(journal.chain, records.last().unwrap().digest);
        // `checkpoint_every` batches folds per record; the last record of
        // a cell takes whatever is left.
        let mut records: Vec<Checkpoint> = Vec::new();
        let mut sink = |record: &Checkpoint| -> Result<(), String> {
            records.push(record.clone());
            Ok(())
        };
        let batched = run_shard_with(
            &scenario,
            spec,
            &ProtocolRegistry::builtins(),
            ShardRunOptions {
                checkpoint_every: 4,
                sink: Some(&mut sink),
                ..ShardRunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(batched, part);
        assert_eq!(records.len(), 1 + cells * (1 + 2 + 1));
        assert_eq!(
            Journal::read(&journal_bytes(&records)).unwrap().cells_done,
            part.cells
        );
    }

    #[test]
    fn the_journal_reader_keeps_the_valid_prefix_and_nothing_after_it() {
        let scenario = tiny(3);
        let (_, records) = journaled(&scenario, ShardSpec::new(0, 1).unwrap());
        let bytes = journal_bytes(&records);
        let ends: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        // A tail torn anywhere inside record k reads as records 0..k.
        let whole = Journal::read(&bytes[..ends[4]]).unwrap();
        for cut in ends[4] + 1..ends[5] {
            let torn = Journal::read(&bytes[..cut]).unwrap();
            assert_eq!(torn, whole, "cut at byte {cut}");
            assert_eq!(torn.valid_len, ends[4]);
        }
        // A record that verifies but does not chain ends the prefix: here
        // record 3 is missing, so 4 does not follow 2.
        let mut gapped = bytes[..ends[2]].to_vec();
        gapped.extend_from_slice(&bytes[ends[3]..]);
        let read = Journal::read(&gapped).unwrap();
        assert_eq!(read, Journal::read(&bytes[..ends[2]]).unwrap());
        // Nothing before a valid header: refused, by name.
        for broken in [&b""[..], &bytes[..ends[0] - 1], &bytes[ends[0]..]] {
            let err = Journal::read(broken).unwrap_err();
            assert!(err.contains("no valid header record"), "{err}");
        }
    }

    #[test]
    fn adaptive_stop_rules_need_a_coordinator_only_beyond_one_shard() {
        let mut scenario = tiny(8);
        scenario.stop = Some(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.1,
            min_runs: 2,
        });
        let err = run_shard(&scenario, ShardSpec::new(0, 2).unwrap()).unwrap_err();
        assert!(err.contains("adaptive"), "{err}");
        assert!(err.contains("ci(95%"), "{err}");
        // Shard 0/1 sees every run and evaluates the rule itself.
        run_shard(&scenario, ShardSpec::new(0, 1).unwrap()).unwrap();
        // The non-adaptive FixedRuns declaration shards fine.
        scenario.stop = Some(StopRule::FixedRuns);
        run_shard(&scenario, ShardSpec::new(0, 2).unwrap()).unwrap();
    }

    #[test]
    fn partial_outcomes_serde_round_trip() {
        let scenario = tiny(3);
        for part in shard_all(&scenario, 2) {
            let back = PartialOutcome::from_json(&part.to_json()).unwrap();
            assert_eq!(back, part);
        }
        assert!(PartialOutcome::from_json("{]").is_err());
    }

    #[test]
    fn threads_do_not_change_a_shard() {
        let scenario = tiny(6);
        let registry = ProtocolRegistry::builtins();
        let spec = ShardSpec::new(1, 2).unwrap();
        let serial = run_shard_in(&scenario, spec, &registry, 1).unwrap();
        for threads in [3usize, 8] {
            let pooled = run_shard_in(&scenario, spec, &registry, threads).unwrap();
            assert_eq!(pooled, serial, "{threads} threads changed the part");
        }
    }

    fn session_events(scenario: &Scenario) -> Vec<RunEvent> {
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        scenario
            .session()
            .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
            .block()
            .unwrap();
        std::sync::Arc::try_unwrap(events)
            .unwrap()
            .into_inner()
            .unwrap()
    }

    #[test]
    fn a_locally_stopped_shard_records_and_reports_the_prefix_it_kept() {
        let mut scenario = tiny(30);
        scenario.stop = Some(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.25,
            min_runs: 3,
        });
        let spec = ShardSpec::new(0, 1).unwrap();
        let mut observed: Vec<RunEvent> = Vec::new();
        let mut observe = |event: &RunEvent| observed.push(event.clone());
        let part = run_shard_with(
            &scenario,
            spec,
            &ProtocolRegistry::builtins(),
            ShardRunOptions {
                observe: Some(&mut observe),
                ..ShardRunOptions::default()
            },
        )
        .unwrap();
        let CellShard::Campaign { slice } = &part.cells[0].part else {
            panic!("streaming cell carries a campaign part");
        };
        let used = part.runs_used();
        assert!((1..30).contains(&used), "rule must stop early, used {used}");
        assert_eq!(slice.stop_at, Some(used));
        assert_eq!(part.cell_stop_indices(), vec![Some(used)]);
        // The closing event reports the kept prefix, not the budget.
        let RunEvent::CellCompleted {
            runs_used,
            stopped_early,
            report,
            ..
        } = &observed[observed.len() - 2]
        else {
            panic!("expected cell_completed before scenario_completed");
        };
        assert_eq!((*runs_used, *stopped_early), (used, true));
        assert_eq!(
            observed
                .iter()
                .filter(|e| e.kind() == "run_completed")
                .count(),
            used
        );
        // Observing changed nothing about the part, and the sealed part
        // merges to the in-process outcome the event carried.
        assert_eq!(part, run_shard(&scenario, spec).unwrap());
        let merged = merge_shards(vec![part]).unwrap();
        assert_eq!(merged.cells[0], **report);
        assert_eq!(merged, scenario.run().unwrap());
    }

    #[test]
    fn observed_warm_cached_shard_is_byte_identical() {
        let scenario = tiny(3);
        let spec = ShardSpec::new(0, 1).unwrap();
        let plain = run_shard(&scenario, spec).unwrap();
        let cache = WarmCache::new(2);
        let registry = ProtocolRegistry::builtins();
        for expected_hits in [0u64, 1] {
            let part = run_shard_with(
                &scenario,
                spec,
                &registry,
                ShardRunOptions {
                    warm_cache: Some(&cache),
                    ..ShardRunOptions::default()
                },
            )
            .unwrap();
            assert_eq!(part, plain);
            assert_eq!(cache.hits(), expected_hits);
        }
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn checkpoint_replay_plus_continuation_matches_uninterrupted_stream() {
        // Kill-and-resume must not tear the event stream: replaying the
        // journal's prefix and observing the resumed run concatenates
        // to the exact uninterrupted stream (pooled stats included, which
        // the resumed fold alone could not know).
        let scenario = tiny(5);
        let spec = ShardSpec::new(0, 1).unwrap();
        let registry = ProtocolRegistry::builtins();
        let reference = session_events(&scenario);
        let (uninterrupted, records) = journaled(&scenario, spec);
        // Resume from mid-cell: the journal as of the record of run 1
        // (2 runs folded).
        let cut = records
            .iter()
            .position(|r| matches!(r.body, CheckpointBody::Folds { next_run: 2, .. }))
            .expect("the record of the second fold");
        let resume_from = Journal::read(&journal_bytes(&records[..=cut])).unwrap();
        assert_eq!(resume_from.current.as_ref().map(|p| p.next_run), Some(2));
        let mut stream = checkpoint_replay_events(&scenario, &resume_from).unwrap();
        let mut observe = |event: &RunEvent| stream.push(event.clone());
        let resumed = run_shard_with(
            &scenario,
            spec,
            &registry,
            ShardRunOptions {
                resume: Some(resume_from),
                observe: Some(&mut observe),
                ..ShardRunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert_eq!(stream, reference);
    }

    #[test]
    fn checkpoint_replay_rejects_a_foreign_checkpoint() {
        let scenario = tiny(4);
        let (_, records) = journaled(&scenario, ShardSpec::new(0, 1).unwrap());
        let journal = Journal::read(&journal_bytes(&records[..3])).unwrap();
        let mut other = tiny(4);
        other.seed += 1;
        let err = checkpoint_replay_events(&other, &journal).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }
}
