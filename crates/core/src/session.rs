//! Streaming campaign sessions: observable runs and adaptive stopping.
//!
//! [`Scenario::run`] blocks until every cell is done and only then
//! returns anything. A [`ScenarioSession`] is the same execution with the
//! execution options exposed: typed [`RunEvent`]s reach [`Observer`]s as
//! runs fold (live progress, JSONL export), and a [`StopRule`] is
//! evaluated at every run-index-ordered checkpoint, so a cell can stop as
//! soon as its confidence interval is tight instead of burning a fixed
//! budget. Both are shard 0/1 of the one scenario executor in
//! [`crate::shard`] — the session only configures it.
//!
//! Determinism contract: checkpoints fold in run-index order regardless
//! of worker scheduling, and a stop decision depends only on the folded
//! prefix — so a session's output (including where `CiHalfWidth` stops)
//! is byte-identical across thread counts, and equal to the merge of the
//! same scenario executed as any number of shards.
//!
//! # Examples
//!
//! ```no_run
//! use bcbpt_core::{Scenario, StopRule};
//!
//! let scenario = Scenario::builtin("fig3").expect("built-in").quick_scaled();
//! let outcome = scenario
//!     .session()
//!     .with_stop_rule(StopRule::CiHalfWidth {
//!         level: 0.95,
//!         rel_width: 0.1,
//!         min_runs: 5,
//!     })
//!     .observe_fn(|event| eprintln!("{event:?}"))
//!     .block()?;
//! println!("{}", outcome.render());
//! # Ok::<(), String>(())
//! ```

use crate::experiment::{RunCheckpoint, RunResult};
use crate::scenario::{CellOutcome, Scenario, ScenarioOutcome};
use crate::shard::ShardRunOptions;
use crate::warm::WarmCache;
use bcbpt_cluster::ProtocolRegistry;
use bcbpt_stats::StreamingSummary;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::mpsc;
use std::time::Instant;

/// When a streaming campaign cell stops consuming measuring runs.
///
/// Evaluated after every run folds (in run-index order); the first rule
/// hit ends the cell. Serde round-trippable so a checked-in scenario can
/// declare its budget (`Scenario::stop`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StopRule {
    /// Consume the scenario's whole `runs` budget — the batch behaviour,
    /// and the default.
    #[default]
    FixedRuns,
    /// Stop once the normal-approximation confidence interval on the
    /// per-run mean `Δt(m,n)` is tight: half-width ≤ `rel_width · mean`
    /// at `level`, after at least `min_runs` successful measuring runs.
    /// Runs are the independent replicates (the paper averages "over
    /// approximately 1000 runs", §V.B); samples *within* a run share one
    /// measuring origin and are correlated, so the rule deliberately
    /// consults run means, not pooled per-connection samples.
    CiHalfWidth {
        /// Confidence level in `(0, 1)`, e.g. `0.95`.
        level: f64,
        /// Relative half-width target in `(0, 1)`, e.g. `0.1` = ±10 %.
        rel_width: f64,
        /// Successful measuring runs required before the rule may fire
        /// (≥ 2 — the interval needs a variance estimate).
        min_runs: usize,
    },
    /// Stop the cell once it has consumed `budget_ms` of wall-clock time.
    /// Unlike the other rules this depends on the host, not the folded
    /// data: results are reproducible only for a fixed machine and load.
    WallClockMs {
        /// Wall-clock budget per cell, ms.
        budget_ms: f64,
    },
    /// Stop once the *pooled* `Δt(m,n)` variance has stabilised: at the
    /// first evaluation point (after at least `min_runs` successful
    /// measuring runs) where the sample variance of the mergeable
    /// ECDF's accumulator moved by at most `rel_tol` relative to its
    /// value at the previous evaluation point. The rule is stateful —
    /// it compares consecutive evaluation points, so the same rule
    /// evaluated at a different cadence (e.g. by a shard coordinator at
    /// run-index checkpoints instead of at every fold) may stop at a
    /// different, but still deterministic, run index.
    VarianceStable {
        /// Maximum relative change between consecutive variance
        /// evaluations, in `(0, 1)` — e.g. `0.05` = ±5 %.
        rel_tol: f64,
        /// Successful measuring runs required before the rule may fire
        /// (≥ 2 — the variance needs at least two pooled samples).
        min_runs: usize,
    },
}

impl StopRule {
    /// `true` when the rule can end a cell before its `runs` budget —
    /// i.e. anything but [`StopRule::FixedRuns`].
    pub fn is_adaptive(&self) -> bool {
        !matches!(self, StopRule::FixedRuns)
    }

    /// Short human-readable form, e.g. `"ci(95%, ±10%, min 5)"`.
    pub fn label(&self) -> String {
        match self {
            StopRule::FixedRuns => "fixed-runs".to_string(),
            StopRule::CiHalfWidth {
                level,
                rel_width,
                min_runs,
            } => format!(
                "ci({:.0}%, ±{:.0}%, min {min_runs})",
                level * 100.0,
                rel_width * 100.0
            ),
            StopRule::WallClockMs { budget_ms } => format!("wall-clock({budget_ms}ms)"),
            StopRule::VarianceStable { rel_tol, min_runs } => {
                format!("var-stable(±{:.0}%, min {min_runs})", rel_tol * 100.0)
            }
        }
    }

    /// Validates the rule parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            StopRule::FixedRuns => Ok(()),
            StopRule::CiHalfWidth {
                level,
                rel_width,
                min_runs,
            } => {
                if !(level > 0.0 && level < 1.0) {
                    return Err(format!("stop level must be in (0, 1), got {level}"));
                }
                if !rel_width.is_finite() || rel_width <= 0.0 || rel_width >= 1.0 {
                    return Err(format!("stop rel_width must be in (0, 1), got {rel_width}"));
                }
                if min_runs < 2 {
                    return Err(format!(
                        "stop min_runs must be >= 2 (the interval needs a variance), got {min_runs}"
                    ));
                }
                Ok(())
            }
            StopRule::WallClockMs { budget_ms } => {
                if !budget_ms.is_finite() || budget_ms <= 0.0 {
                    return Err(format!(
                        "stop budget_ms must be positive and finite, got {budget_ms}"
                    ));
                }
                Ok(())
            }
            StopRule::VarianceStable { rel_tol, min_runs } => {
                if !rel_tol.is_finite() || rel_tol <= 0.0 || rel_tol >= 1.0 {
                    return Err(format!("stop rel_tol must be in (0, 1), got {rel_tol}"));
                }
                if min_runs < 2 {
                    return Err(format!(
                        "stop min_runs must be >= 2 (the variance needs samples), got {min_runs}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// `true` when the rule is a pure function of the folded data, so a
    /// shard coordinator can evaluate it at deterministic run-index
    /// checkpoints. [`StopRule::WallClockMs`] is excluded — it depends
    /// on the host clock, which differs across shards.
    pub fn is_data_driven(&self) -> bool {
        matches!(
            self,
            StopRule::CiHalfWidth { .. } | StopRule::VarianceStable { .. }
        )
    }

    /// A fresh stateful evaluator for this rule. One evaluator per cell:
    /// [`StopRule::VarianceStable`] compares consecutive evaluations, so
    /// the evaluator must see every checkpoint of one cell in order and
    /// must not be reused across cells.
    pub fn evaluator(&self) -> StopEval {
        StopEval {
            rule: *self,
            prev_var: None,
        }
    }
}

/// Stateful evaluation of one [`StopRule`] over one cell's checkpoint
/// stream, in run-index order. Both a one-shard run and the cross-shard
/// coordinator drive one of these, so a rule stops the same way wherever
/// it runs (given the same evaluation cadence).
#[derive(Debug, Clone)]
pub struct StopEval {
    rule: StopRule,
    /// Pooled-delta variance at the previous evaluation point
    /// ([`StopRule::VarianceStable`] only).
    prev_var: Option<f64>,
}

impl StopEval {
    /// Evaluates the data-driven part of the rule on folded prefix
    /// accumulators: `deltas` pools every finite `Δt(m,n)` sample,
    /// `run_means` holds one mean per successful measuring run, and
    /// `measured_runs` counts those runs. [`StopRule::WallClockMs`]
    /// never fires here (it is not data-driven).
    pub fn observe_folded(
        &mut self,
        deltas: &StreamingSummary,
        run_means: &StreamingSummary,
        measured_runs: usize,
    ) -> bool {
        match self.rule {
            StopRule::FixedRuns | StopRule::WallClockMs { .. } => false,
            StopRule::CiHalfWidth {
                level,
                rel_width,
                min_runs,
            } => {
                if measured_runs < min_runs || run_means.count() < 2 {
                    return false;
                }
                let half = run_means.mean_half_width(level);
                half.is_finite() && half <= rel_width * run_means.mean().abs()
            }
            StopRule::VarianceStable { rel_tol, min_runs } => {
                if deltas.count() < 2 {
                    return false;
                }
                let sd = deltas.std_dev();
                let var = sd * sd;
                if !var.is_finite() {
                    return false;
                }
                let stable = match self.prev_var {
                    Some(prev) if prev > 0.0 => (var - prev).abs() <= rel_tol * prev,
                    Some(prev) => var == prev,
                    None => false,
                };
                self.prev_var = Some(var);
                stable && measured_runs >= min_runs
            }
        }
    }

    /// Evaluates the rule at an in-process fold checkpoint. `started` is
    /// when the cell's campaign began (for the wall-clock budget).
    pub(crate) fn observe(&mut self, checkpoint: &RunCheckpoint<'_>, started: Instant) -> bool {
        match self.rule {
            StopRule::WallClockMs { budget_ms } => {
                started.elapsed().as_secs_f64() * 1_000.0 >= budget_ms
            }
            _ => {
                let folded = checkpoint.folded;
                self.observe_folded(&folded.deltas, &folded.run_means, folded.measured)
            }
        }
    }
}

/// Folded statistics attached to every [`RunEvent::RunCompleted`]: the
/// run's own harvest plus the pooled prefix the stop rule saw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// `false` when the run was skipped (its measuring origin churned
    /// away before injection).
    pub measured: bool,
    /// `Δt(m,n)` samples this run harvested.
    pub run_deltas: usize,
    /// Successful measuring runs folded so far (including this one).
    pub measured_runs: usize,
    /// Pooled `Δt(m,n)` samples folded so far.
    pub pooled_samples: u64,
    /// Running mean of the pooled samples, ms.
    pub pooled_mean_ms: f64,
    /// Running sample standard deviation of the pooled samples, ms.
    pub pooled_std_dev_ms: f64,
}

impl RunStats {
    /// The stats attached to a fold checkpoint: the run's own harvest
    /// plus the pooled prefix accumulated so far. The one constructor the
    /// live executor and checkpoint replay share, so a resumed stream
    /// can never diverge from an uninterrupted one.
    pub(crate) fn folded(
        result: Option<&RunResult>,
        deltas: &bcbpt_stats::StreamingSummary,
        measured_runs: usize,
    ) -> RunStats {
        RunStats {
            measured: result.is_some(),
            run_deltas: result.map_or(0, |r| r.deltas_ms.len()),
            measured_runs,
            pooled_samples: deltas.count(),
            pooled_mean_ms: deltas.mean(),
            pooled_std_dev_ms: deltas.std_dev(),
        }
    }
}

/// A typed progress event emitted by a [`ScenarioSession`].
///
/// Events arrive in deterministic order: cells in sweep order, and within
/// a campaign cell one `RunCompleted` per folded run index (ascending).
/// Serde round-trippable — the `scenario` driver's `--jsonl` flag writes
/// one serialized event per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunEvent {
    /// A sweep cell is about to run.
    CellStarted {
        /// Cell index in sweep order (0-based).
        cell: usize,
        /// The cell's label (protocol, plus `@n=…` on a size sweep).
        label: String,
        /// The `runs` budget the cell may consume (0 for single-shot
        /// workloads such as mining or partition).
        planned_runs: usize,
    },
    /// One measuring run folded into a streaming campaign cell.
    RunCompleted {
        /// Cell index in sweep order.
        cell: usize,
        /// Campaign-local run index (folds arrive in ascending order).
        run_index: usize,
        /// The run's harvest and the pooled prefix statistics.
        run_stats: RunStats,
    },
    /// One measuring run panicked and was folded as a structured failure
    /// (per-run panic isolation) — the cell continues; run indices stay
    /// gap-free across `RunCompleted` and `RunFailed` together.
    RunFailed {
        /// Cell index in sweep order.
        cell: usize,
        /// Campaign-local run index of the panicking run.
        run_index: usize,
        /// The panic payload, rendered to text.
        payload: String,
    },
    /// A cell finished; `report` is its full outcome.
    CellCompleted {
        /// Cell index in sweep order.
        cell: usize,
        /// The cell's outcome (label, protocol and workload report),
        /// boxed so the event enum stays small to clone per observer.
        report: Box<CellOutcome>,
        /// Measuring run indices the cell consumed (equals `planned_runs`
        /// unless a stop rule fired; the cell's budget for single-shot
        /// workloads).
        runs_used: usize,
        /// `true` when an adaptive stop rule ended the cell early.
        stopped_early: bool,
    },
    /// A cell failed at run time; the sweep continues and the error is
    /// also recorded as a [`CellReport::Failed`](crate::CellReport::Failed) in the outcome.
    CellFailed {
        /// Cell index in sweep order.
        cell: usize,
        /// The cell's label.
        label: String,
        /// The run-time error.
        error: String,
    },
    /// The whole scenario finished; always the last event of a session.
    ScenarioCompleted {
        /// The scenario's name.
        scenario: String,
        /// Number of cells run.
        cells: usize,
        /// Number of cells that failed at run time.
        failed_cells: usize,
    },
}

impl RunEvent {
    /// The event's cell index (`None` for [`RunEvent::ScenarioCompleted`]).
    pub fn cell(&self) -> Option<usize> {
        match self {
            RunEvent::CellStarted { cell, .. }
            | RunEvent::RunCompleted { cell, .. }
            | RunEvent::RunFailed { cell, .. }
            | RunEvent::CellCompleted { cell, .. }
            | RunEvent::CellFailed { cell, .. } => Some(*cell),
            RunEvent::ScenarioCompleted { .. } => None,
        }
    }

    /// Short kind tag, e.g. `"run_completed"` — handy for filtering JSONL
    /// streams.
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::CellStarted { .. } => "cell_started",
            RunEvent::RunCompleted { .. } => "run_completed",
            RunEvent::RunFailed { .. } => "run_failed",
            RunEvent::CellCompleted { .. } => "cell_completed",
            RunEvent::CellFailed { .. } => "cell_failed",
            RunEvent::ScenarioCompleted { .. } => "scenario_completed",
        }
    }
}

/// A session event subscriber. Called synchronously (under the fold lock
/// for `RunCompleted`), so observers should hand work off quickly.
pub trait Observer: Send {
    /// Receives one event.
    fn on_event(&mut self, event: &RunEvent);
}

/// Every `Send` closure over `&RunEvent` is an observer.
impl<F: FnMut(&RunEvent) + Send> Observer for F {
    fn on_event(&mut self, event: &RunEvent) {
        self(event);
    }
}

/// An [`Observer`] that clones every event into an [`mpsc`] channel —
/// what [`ScenarioSession::subscribe`] installs. A dropped receiver is
/// ignored (the session never fails because a consumer went away).
pub struct ChannelObserver {
    sender: mpsc::Sender<RunEvent>,
}

impl ChannelObserver {
    /// Creates the observer and the receiving end of its channel.
    pub fn pair() -> (Self, mpsc::Receiver<RunEvent>) {
        let (sender, receiver) = mpsc::channel();
        (ChannelObserver { sender }, receiver)
    }
}

impl Observer for ChannelObserver {
    fn on_event(&mut self, event: &RunEvent) {
        let _ = self.sender.send(event.clone());
    }
}

/// A configured streaming execution of a [`Scenario`]: the scenario's
/// cells, a [`StopRule`], a worker-thread count and any number of
/// [`Observer`]s. Built by [`Scenario::session`], consumed by
/// [`block`](Self::block) / [`block_in`](Self::block_in).
pub struct ScenarioSession<'a> {
    scenario: Cow<'a, Scenario>,
    threads: usize,
    warm: Option<&'a WarmCache>,
    observers: Vec<Box<dyn Observer + 'a>>,
}

impl<'a> ScenarioSession<'a> {
    /// Creates a session over `scenario` with the scenario's declared stop
    /// rule (default [`StopRule::FixedRuns`]) and one worker thread per
    /// available core. Use [`Scenario::session`].
    pub(crate) fn new(scenario: &'a Scenario) -> Self {
        ScenarioSession {
            scenario: Cow::Borrowed(scenario),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            warm: None,
            observers: Vec::new(),
        }
    }

    /// Warms campaign cells through `cache` (see [`WarmCache`]): cells
    /// sharing a warm recipe — and repeated sessions over one cache —
    /// build + warm the network once and clone thereafter, with
    /// byte-identical output.
    #[must_use]
    pub fn with_warm_cache(mut self, cache: &'a WarmCache) -> Self {
        self.warm = Some(cache);
        self
    }

    /// Overrides the stop rule: the session runs a copy of the scenario
    /// whose `stop` field is `stop`.
    #[must_use]
    pub fn with_stop_rule(mut self, stop: StopRule) -> Self {
        self.scenario = Cow::Owned(self.scenario.into_owned().with_stop(stop));
        self
    }

    /// Sets the worker-thread count (`0` is treated as 1). This is an
    /// execution detail: output is byte-identical for every value under
    /// the data-driven stop rules ([`StopRule::FixedRuns`],
    /// [`StopRule::CiHalfWidth`], [`StopRule::VarianceStable`]).
    /// [`StopRule::WallClockMs`] decides on
    /// host time, so where it cuts a cell varies with the thread count
    /// (and machine) by design.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an observer.
    #[must_use]
    pub fn observe(mut self, observer: impl Observer + 'a) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attaches a closure observer (sugar over [`observe`](Self::observe)).
    #[must_use]
    pub fn observe_fn(self, f: impl FnMut(&RunEvent) + Send + 'a) -> Self {
        self.observe(f)
    }

    /// Attaches a channel subscriber and returns its receiving end. The
    /// channel is unbounded; drain it from another thread for live
    /// consumption, or after [`block`](Self::block) returns.
    pub fn subscribe(&mut self) -> mpsc::Receiver<RunEvent> {
        let (observer, receiver) = ChannelObserver::pair();
        self.observers.push(Box::new(observer));
        receiver
    }

    /// Runs the session against the built-in protocol set.
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors (per-cell run-time
    /// failures are recorded in the outcome, not returned).
    pub fn block(self) -> Result<ScenarioOutcome, String> {
        self.block_in(&ProtocolRegistry::builtins())
    }

    /// Runs the session with protocols resolved against `registry`.
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors (per-cell run-time
    /// failures are recorded in the outcome, not returned).
    pub fn block_in(mut self, registry: &ProtocolRegistry) -> Result<ScenarioOutcome, String> {
        // Events carry full cell outcomes; only build them when someone
        // is listening.
        let observed = !self.observers.is_empty();
        let observers = &mut self.observers;
        let mut fan_out = |event: &RunEvent| emit(observers, event);
        crate::shard::run_unsharded(
            &self.scenario,
            registry,
            ShardRunOptions {
                threads: Some(self.threads),
                observe: if observed { Some(&mut fan_out) } else { None },
                warm_cache: self.warm,
                ..ShardRunOptions::default()
            },
        )
    }
}

/// Delivers one event to every observer, in attach order.
fn emit(observers: &mut [Box<dyn Observer + '_>], event: &RunEvent) {
    for observer in observers {
        observer.on_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::scenario::{CellReport, Workload};
    use bcbpt_cluster::Protocol;
    use std::sync::{Arc, Mutex};

    fn tiny(runs: usize) -> Scenario {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 60;
        base.warmup_ms = 1_000.0;
        base.window_ms = 15_000.0;
        base.runs = runs;
        Scenario::from_experiment("tiny-session", &base, Workload::TxFlood)
    }

    fn every_stop_rule() -> Vec<StopRule> {
        vec![
            StopRule::FixedRuns,
            StopRule::CiHalfWidth {
                level: 0.95,
                rel_width: 0.1,
                min_runs: 3,
            },
            StopRule::WallClockMs { budget_ms: 500.0 },
            StopRule::VarianceStable {
                rel_tol: 0.05,
                min_runs: 4,
            },
        ]
    }

    #[test]
    fn stop_rules_serde_round_trip_and_label() {
        use serde::{Deserialize, Serialize};
        for rule in every_stop_rule() {
            let back = StopRule::from_value(&rule.to_value()).unwrap();
            assert_eq!(back, rule);
            assert!(!rule.label().is_empty());
        }
        assert!(!StopRule::FixedRuns.is_adaptive());
        assert!(StopRule::WallClockMs { budget_ms: 1.0 }.is_adaptive());
        assert_eq!(StopRule::default(), StopRule::FixedRuns);
    }

    #[test]
    fn stop_rule_validation_rejects_degenerate_parameters() {
        for (rule, needle) in [
            (
                StopRule::CiHalfWidth {
                    level: 1.0,
                    rel_width: 0.1,
                    min_runs: 3,
                },
                "level",
            ),
            (
                StopRule::CiHalfWidth {
                    level: 0.95,
                    rel_width: 0.0,
                    min_runs: 3,
                },
                "rel_width",
            ),
            (
                StopRule::CiHalfWidth {
                    level: 0.95,
                    rel_width: f64::NAN,
                    min_runs: 3,
                },
                "rel_width",
            ),
            (
                StopRule::CiHalfWidth {
                    level: 0.95,
                    rel_width: 0.1,
                    min_runs: 1,
                },
                "min_runs",
            ),
            (StopRule::WallClockMs { budget_ms: 0.0 }, "budget_ms"),
            (
                StopRule::WallClockMs {
                    budget_ms: f64::INFINITY,
                },
                "budget_ms",
            ),
            (
                StopRule::VarianceStable {
                    rel_tol: 1.0,
                    min_runs: 4,
                },
                "rel_tol",
            ),
            (
                StopRule::VarianceStable {
                    rel_tol: 0.05,
                    min_runs: 1,
                },
                "min_runs",
            ),
        ] {
            let err = rule.validate().unwrap_err();
            assert!(err.contains(needle), "{rule:?}: {err}");
        }
        for rule in every_stop_rule() {
            rule.validate().unwrap();
        }
    }

    #[test]
    fn adaptive_stop_rejected_for_non_streaming_workloads() {
        let mut scenario = tiny(3);
        scenario.workload = Workload::Mining {
            block_interval_ms: 800.0,
            duration_ms: 10_000.0,
        };
        scenario.stop = Some(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.1,
            min_runs: 2,
        });
        let err = scenario.validate().unwrap_err();
        assert!(err.contains("adaptive stop rule"), "{err}");
        // FixedRuns is always acceptable.
        scenario.stop = Some(StopRule::FixedRuns);
        scenario.validate().unwrap();
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let scenario = tiny(4);
        let reference = scenario.session().with_threads(1).block().unwrap();
        for threads in [3usize, 8] {
            let pooled = scenario.session().with_threads(threads).block().unwrap();
            assert_eq!(pooled, reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn event_stream_has_deterministic_shape() {
        let scenario = tiny(3);
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let outcome = scenario
            .session()
            .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
            .block()
            .unwrap();
        let events = events.lock().unwrap();
        // Shape: CellStarted, one RunCompleted per run (ascending), then
        // CellCompleted, then ScenarioCompleted last.
        assert_eq!(events.len(), 1 + 3 + 1 + 1);
        assert_eq!(events[0].kind(), "cell_started");
        for (i, event) in events[1..4].iter().enumerate() {
            let RunEvent::RunCompleted {
                cell,
                run_index,
                run_stats,
            } = event
            else {
                panic!("expected run_completed, got {event:?}");
            };
            assert_eq!(*cell, 0);
            assert_eq!(*run_index, i, "folds arrive in run-index order");
            assert!(run_stats.pooled_samples > 0);
        }
        let RunEvent::CellCompleted {
            report,
            runs_used,
            stopped_early,
            ..
        } = &events[4]
        else {
            panic!("expected cell_completed, got {:?}", events[4]);
        };
        assert_eq!(*runs_used, 3);
        assert!(!stopped_early);
        assert_eq!(**report, outcome.cells[0]);
        let RunEvent::ScenarioCompleted {
            scenario: name,
            cells,
            failed_cells,
        } = &events[5]
        else {
            panic!("expected scenario_completed, got {:?}", events[5]);
        };
        assert_eq!(name, "tiny-session");
        assert_eq!(*cells, 1);
        assert_eq!(*failed_cells, 0);
        // Events serde round-trip (the JSONL contract).
        use serde::{Deserialize, Serialize};
        for event in events.iter() {
            let back = RunEvent::from_value(&event.to_value()).unwrap();
            assert_eq!(&back, event);
            assert!(!event.kind().is_empty());
        }
    }

    #[test]
    fn subscribe_channel_receives_the_full_stream() {
        let scenario = tiny(2);
        let mut session = scenario.session();
        let receiver = session.subscribe();
        session.block().unwrap();
        let events: Vec<RunEvent> = receiver.try_iter().collect();
        assert_eq!(events.first().map(RunEvent::kind), Some("cell_started"));
        assert_eq!(
            events.last().map(RunEvent::kind),
            Some("scenario_completed")
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind() == "run_completed")
                .count(),
            2
        );
    }

    #[test]
    fn ci_half_width_stops_early_and_is_thread_count_invariant() {
        // Plenty of budget, loose target: the rule must fire well before
        // the ceiling, and at the same run index for every thread count.
        let scenario = tiny(30);
        let rule = StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.25,
            min_runs: 3,
        };
        let reference = scenario
            .session()
            .with_stop_rule(rule)
            .with_threads(1)
            .block()
            .unwrap();
        let used = reference.cells[0].campaign().unwrap().runs.len();
        assert!(
            (1..30).contains(&used),
            "rule must stop early, used {used} runs"
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
                "early stop diverged at {threads} threads"
            );
        }
        // The early-stopped campaign is exactly the full campaign's prefix.
        let full = scenario.run_batch().unwrap();
        let full_runs = &full.cells[0].campaign().unwrap().runs;
        assert_eq!(
            &full_runs[..used],
            &reference.cells[0].campaign().unwrap().runs[..],
            "stopping truncates, never changes, the run stream"
        );
    }

    #[test]
    fn variance_stable_stops_early_and_is_thread_count_invariant() {
        // The pooled variance settles fast on a quiet TxFlood cell: a
        // loose tolerance must fire before the budget, at the same run
        // index for every thread count, and leave a strict prefix.
        let scenario = tiny(30);
        let rule = StopRule::VarianceStable {
            rel_tol: 0.2,
            min_runs: 3,
        };
        let reference = scenario
            .session()
            .with_stop_rule(rule)
            .with_threads(1)
            .block()
            .unwrap();
        let used = reference.cells[0].campaign().unwrap().runs.len();
        assert!(
            (1..30).contains(&used),
            "rule must stop early, used {used} runs"
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
                "early stop diverged at {threads} threads"
            );
        }
        let full = scenario.run_batch().unwrap();
        assert_eq!(
            &full.cells[0].campaign().unwrap().runs[..used],
            &reference.cells[0].campaign().unwrap().runs[..],
            "stopping truncates, never changes, the run stream"
        );
    }

    #[test]
    fn wall_clock_budget_stops_a_cell() {
        // A 0.01 ms budget is exhausted by the first checkpoint.
        let scenario = tiny(10);
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let outcome = scenario
            .session()
            .with_stop_rule(StopRule::WallClockMs { budget_ms: 0.01 })
            .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
            .block()
            .unwrap();
        assert!(outcome.cells[0].campaign().unwrap().runs.len() <= 1);
        let events = events.lock().unwrap();
        let RunEvent::CellCompleted {
            runs_used,
            stopped_early,
            ..
        } = events
            .iter()
            .find(|e| e.kind() == "cell_completed")
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!(*runs_used, 1);
        assert!(stopped_early);
    }

    #[test]
    fn failed_cells_emit_cell_failed_events() {
        let mut registry = ProtocolRegistry::builtins();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        registry.register("flaky", move |_spec| {
            if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                Ok(Box::new(bcbpt_net::RandomPolicy::new()))
            } else {
                Err("flaky exploded at run time".to_string())
            }
        });
        let mut scenario = tiny(2);
        scenario.protocol = bcbpt_cluster::ProtocolSpec::new("flaky");
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let outcome = scenario
            .session()
            .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
            .block_in(&registry)
            .unwrap();
        assert_eq!(outcome.cells[0].error(), Some("flaky exploded at run time"));
        let events = events.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            RunEvent::CellFailed { error, .. } if error.contains("flaky exploded")
        )));
        let RunEvent::ScenarioCompleted { failed_cells, .. } = events.last().unwrap() else {
            panic!("last event must be scenario_completed");
        };
        assert_eq!(*failed_cells, 1);
    }

    #[test]
    fn overhead_cells_expose_no_delta_statistics() {
        let mut scenario = tiny(3);
        scenario.workload = Workload::OverheadProbe;
        let outcome = scenario.run().unwrap();
        assert!(matches!(
            outcome.cells[0].report,
            CellReport::Overhead { .. }
        ));
        // Overhead cells drop the campaign, so the delta accessors stay
        // empty.
        assert!(outcome.cells[0].delta_summary().is_none());
        assert!(outcome.cells[0].delta_ecdf().is_none());
    }

    #[test]
    fn single_shot_workloads_run_through_the_session() {
        let mut scenario = tiny(0);
        scenario.net.num_nodes = 80;
        scenario.workload = Workload::Partition;
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let outcome = scenario
            .session()
            .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
            .block()
            .unwrap();
        assert!(matches!(
            outcome.cells[0].report,
            CellReport::Partition { .. }
        ));
        let events = events.lock().unwrap();
        let kinds: Vec<&str> = events.iter().map(RunEvent::kind).collect();
        assert_eq!(
            kinds,
            vec!["cell_started", "cell_completed", "scenario_completed"],
            "single-shot cells emit no run events"
        );
        let RunEvent::CellStarted { planned_runs, .. } = &events[0] else {
            unreachable!()
        };
        assert_eq!(*planned_runs, 0);
    }
}
