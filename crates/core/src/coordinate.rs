//! Cross-shard adaptive stopping: the coordinator round of the shard
//! protocol.
//!
//! An adaptive [`StopRule`](crate::StopRule) decides on the *folded
//! prefix* of the whole run stream, which no single shard of a
//! `--shard i/N` split ever sees. This module closes that gap with a
//! thin, deterministic coordination round:
//!
//! - every shard serializes its folded prefix accumulators (the
//!   [`StreamingSummary`] pair the stop rules consult) into a digest-
//!   sealed [`PrefixEnvelope`] at deterministic *boundary* positions —
//!   every global run index divisible by the cadence inside its range,
//!   plus its range end;
//! - the coordinator folds envelopes **in shard order** at ascending
//!   run-index *checkpoints* (cadence multiples, then the full budget)
//!   once every shard that owns runs below a checkpoint has reported,
//!   and drives one stateful `StopEval` per cell over that stream;
//! - the first checkpoint where the rule fires becomes the broadcast
//!   [`StopDecision`]: *stop at run index S*. Every shard truncates its
//!   slice to run indices `< S`, so the merged campaign is exactly the
//!   `FixedRuns` prefix `0..S` of the full run stream.
//!
//! Determinism: the decision is a pure function of
//! `(scenario, shard_count, cadence)` — envelope arrival order, thread
//! counts, checkpoint/resume interruptions, and which process hosts the
//! coordinator all cancel out, because evaluation only ever happens at
//! ascending checkpoints over content-addressed prefixes. The stop index
//! may differ from the single-host session's (which evaluates after
//! every fold, not every `cadence` runs) and may differ across shard
//! *layouts* (summary merging associates differently), but for a fixed
//! layout it is bit-stable — which is what the determinism-contract
//! tests pin.
//!
//! [`LocalCoordinator`] is the in-process implementation (used by
//! `bcbpt-serve` multi-shard adaptive jobs and the tests); `bcbpt-serve`
//! wraps it in a small HTTP server/client pair for cross-process
//! `scenario shard run --coordinate <addr>` fleets.

use crate::scenario::Scenario;
use crate::session::StopEval;
use crate::shard::ShardPlan;
use crate::wire::{CoordinatorConfig, PrefixEnvelope, Sealed, StopDecision, COORD_FORMAT_VERSION};
use bcbpt_stats::StreamingSummary;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Whether global run position `p` is a boundary of the shard owning
/// `run_start..run_end` under `cadence`: a cadence multiple strictly
/// inside the range, or the range end. Boundaries are where a shard
/// seals and submits a [`PrefixEnvelope`] — and the positions whose
/// cumulative window traffic it snapshots, so a later decision can
/// truncate the slice exactly there.
pub(crate) fn is_shard_boundary(
    run_start: usize,
    run_end: usize,
    cadence: usize,
    p: usize,
) -> bool {
    p > run_start && p <= run_end && (p == run_end || p.is_multiple_of(cadence))
}

/// The coordination endpoint a shard run talks to. Implemented in-process
/// by [`LocalCoordinator`] and over HTTP by `bcbpt-serve`'s client; the
/// shard path only sees this trait, so both deployments execute the
/// identical protocol.
pub trait StopCoordinator: Send + Sync {
    /// The coordinator's sealed identity card.
    ///
    /// # Errors
    ///
    /// Transport failure, or an unverifiable config.
    fn config(&self) -> Result<CoordinatorConfig, String>;

    /// Submits one sealed prefix envelope; returns the cell's decision if
    /// it is already (or now) known. Submission is idempotent: a resumed
    /// shard replays the boundaries it already passed and the coordinator
    /// verifies each duplicate is bit-identical to what it first saw.
    ///
    /// # Errors
    ///
    /// Transport failure, a rejected envelope (bad seal, wrong scenario
    /// or fleet, a non-boundary position, or a duplicate that differs),
    /// or an abandoned cell.
    fn submit(&self, envelope: PrefixEnvelope) -> Result<Option<StopDecision>, String>;

    /// The cell's decision, if decided.
    ///
    /// # Errors
    ///
    /// Transport failure or an abandoned cell.
    fn decision(&self, cell_index: usize) -> Result<Option<StopDecision>, String>;

    /// Marks a cell as failed on this shard so peers blocked in
    /// [`wait`](Self::wait) fail fast instead of hanging on envelopes
    /// that will never arrive.
    ///
    /// # Errors
    ///
    /// Transport failure.
    fn abandon(&self, cell_index: usize, reason: &str) -> Result<(), String>;

    /// Blocks until the cell is decided (the end-of-cell barrier).
    ///
    /// # Errors
    ///
    /// Transport failure or an abandoned cell.
    fn wait(&self, cell_index: usize) -> Result<StopDecision, String> {
        loop {
            if let Some(decision) = self.decision(cell_index)? {
                return Ok(decision);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Per-cell coordinator state.
#[derive(Debug)]
struct CellCoord {
    /// Envelopes keyed by `(shard_index, upto)`.
    envelopes: BTreeMap<(usize, usize), PrefixEnvelope>,
    /// The cell's stateful rule evaluator (consumes checkpoints in
    /// ascending order exactly once each).
    eval: StopEval,
    /// Index into the checkpoint list of the next unevaluated checkpoint.
    next_checkpoint: usize,
    /// The verdict, once reached.
    decision: Option<StopDecision>,
    /// A shard abandoned the cell (deterministic peers will too).
    failed: Option<String>,
    /// Evaluation rounds completed (diagnostics).
    rounds: u64,
}

/// The in-process coordinator: one instance per coordinated scenario run.
/// Thread-safe; every shard thread (or the serve worker pool) shares one
/// reference.
#[derive(Debug)]
pub struct LocalCoordinator {
    config: CoordinatorConfig,
    /// `(run_start, run_end)` per shard, from the deterministic plan.
    ranges: Vec<(usize, usize)>,
    /// Global checkpoint positions, ascending: cadence multiples below
    /// the budget, then the budget itself.
    checkpoints: Vec<usize>,
    cells: Mutex<Vec<CellCoord>>,
    wake: Condvar,
}

impl LocalCoordinator {
    /// Builds a coordinator for `scenario` split into `shard_count`
    /// shards, evaluating at every `cadence` runs.
    ///
    /// # Errors
    ///
    /// Rejects a missing/non-adaptive/host-dependent stop rule, a zero
    /// cadence, and invalid plans.
    pub fn new(scenario: &Scenario, shard_count: usize, cadence: usize) -> Result<Self, String> {
        let stop = scenario
            .stop
            .ok_or("coordination requires the scenario to declare an adaptive stop rule")?;
        if !stop.is_adaptive() {
            return Err(
                "coordination requires an adaptive stop rule (FixedRuns needs no coordinator — \
                 run the shards plain)"
                    .to_string(),
            );
        }
        if !stop.is_data_driven() {
            return Err(format!(
                "stop rule {} cannot coordinate shards: it decides on host wall-clock time, \
                 which differs across hosts; use a data-driven rule (CiHalfWidth, VarianceStable)",
                stop.label()
            ));
        }
        if cadence == 0 {
            return Err("coordination cadence must be >= 1".to_string());
        }
        let plans = ShardPlan::plan(scenario.runs, shard_count)?;
        let ranges: Vec<(usize, usize)> = plans.iter().map(|p| (p.run_start, p.run_end)).collect();
        let runs = scenario.runs;
        let mut checkpoints: Vec<usize> = (1..)
            .map(|k| k * cadence)
            .take_while(|&p| p < runs)
            .collect();
        checkpoints.push(runs);
        let cell_count = scenario.cells().len();
        let mut config = CoordinatorConfig {
            version: COORD_FORMAT_VERSION,
            scenario: scenario.name.clone(),
            scenario_digest: scenario.digest(),
            scenario_runs: runs,
            shard_count,
            cadence,
            stop,
            digest: 0,
        };
        config.seal();
        let cells = (0..cell_count)
            .map(|_| CellCoord {
                envelopes: BTreeMap::new(),
                eval: stop.evaluator(),
                next_checkpoint: 0,
                decision: None,
                failed: None,
                rounds: 0,
            })
            .collect();
        Ok(LocalCoordinator {
            config,
            ranges,
            checkpoints,
            cells: Mutex::new(cells),
            wake: Condvar::new(),
        })
    }

    /// Pre-seeds a cell's decision (no evaluation). Used when a service
    /// restart restores a coordinated job some shards of which already
    /// completed under a decision recorded in their parts: re-imposing it
    /// keeps the resumed shards consistent with the completed ones.
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range cell, a decision conflicting with an
    /// already-decided cell, or a stop index outside `(0, runs)`.
    pub fn preset(&self, cell_index: usize, stop_at: Option<usize>) -> Result<(), String> {
        if let Some(s) = stop_at {
            if s == 0 || s >= self.config.scenario_runs {
                return Err(format!(
                    "preset stop index {s} out of range (0, {})",
                    self.config.scenario_runs
                ));
            }
        }
        let mut cells = self.cells.lock().expect("coordinator lock");
        let cell = cells
            .get_mut(cell_index)
            .ok_or_else(|| format!("cell {cell_index} out of range"))?;
        let decision = self.decision_for(cell_index, stop_at);
        match &cell.decision {
            Some(existing) if *existing != decision => Err(format!(
                "cell {cell_index} already decided differently (existing stop {:?}, preset {:?})",
                existing.stop_at, stop_at
            )),
            Some(_) => Ok(()),
            None => {
                cell.decision = Some(decision);
                self.wake.notify_all();
                Ok(())
            }
        }
    }

    /// Total runs the fleet did not execute thanks to early stops, summed
    /// over decided cells: `shard_count`-independent bookkeeping for the
    /// driver's summary (`runs budget − stop index` per stopped cell).
    pub fn runs_saved(&self) -> usize {
        let cells = self.cells.lock().expect("coordinator lock");
        cells
            .iter()
            .filter_map(|cell| cell.decision.as_ref())
            .filter_map(|decision| decision.stop_at)
            .map(|s| self.config.scenario_runs - s)
            .sum()
    }

    /// Every cell's decision (`None` entries are still undecided).
    pub fn decisions(&self) -> Vec<Option<StopDecision>> {
        let cells = self.cells.lock().expect("coordinator lock");
        cells.iter().map(|cell| cell.decision.clone()).collect()
    }

    /// `true` once every cell is decided (or abandoned).
    pub fn is_complete(&self) -> bool {
        let cells = self.cells.lock().expect("coordinator lock");
        cells
            .iter()
            .all(|cell| cell.decision.is_some() || cell.failed.is_some())
    }

    fn decision_for(&self, cell_index: usize, stop_at: Option<usize>) -> StopDecision {
        let mut decision = StopDecision {
            version: COORD_FORMAT_VERSION,
            scenario_digest: self.config.scenario_digest,
            cell_index,
            stop_at,
            rule: self.config.stop.label(),
            digest: 0,
        };
        decision.seal();
        decision
    }

    /// Advances a cell's checkpoint frontier as far as envelope coverage
    /// allows; sets the decision when the rule fires or the budget is
    /// fully covered. Caller holds the lock.
    fn evaluate(&self, cell_index: usize, cell: &mut CellCoord) {
        let runs = self.config.scenario_runs;
        while cell.decision.is_none() {
            let Some(&p) = self.checkpoints.get(cell.next_checkpoint) else {
                break;
            };
            // Coverage: every shard owning runs below `p` must have
            // reported its prefix at min(end, p).
            let mut contributions: Vec<&PrefixEnvelope> = Vec::new();
            let mut covered = true;
            for &(start, end) in &self.ranges {
                if end == start || start >= p {
                    continue;
                }
                let q = end.min(p);
                match cell.envelopes.get(&(self.range_shard(start), q)) {
                    Some(envelope) => contributions.push(envelope),
                    None => {
                        covered = false;
                        break;
                    }
                }
            }
            if !covered {
                break;
            }
            // Fold in shard order — ranges are contiguous ascending, so
            // shard order *is* run order.
            let mut deltas = StreamingSummary::new();
            let mut run_means = StreamingSummary::new();
            let mut measured = 0usize;
            for envelope in contributions {
                deltas.merge(&envelope.deltas);
                run_means.merge(&envelope.run_means);
                measured += envelope.measured_runs;
            }
            cell.rounds += 1;
            crate::obs::coord_rounds_total().inc();
            let fired = cell.eval.observe_folded(&deltas, &run_means, measured);
            if fired && p < runs {
                cell.decision = Some(self.decision_for(cell_index, Some(p)));
            } else if p >= runs {
                // Full budget covered without a strict-prefix stop.
                cell.decision = Some(self.decision_for(cell_index, None));
            }
            cell.next_checkpoint += 1;
        }
        if cell.decision.is_some() {
            self.wake.notify_all();
        }
    }

    /// The shard index owning the range starting at `start` (ranges are
    /// the deterministic plan, so the lookup cannot fail).
    fn range_shard(&self, start: usize) -> usize {
        self.ranges
            .iter()
            .position(|&(s, _)| s == start)
            .expect("range comes from the plan")
    }

    /// Validates an envelope against the config and this shard's plan.
    fn check_envelope(&self, envelope: &PrefixEnvelope) -> Result<(), String> {
        envelope.verify_seal()?;
        if envelope.scenario_digest != self.config.scenario_digest {
            return Err(format!(
                "envelope is for scenario digest {:#018x}, coordinator holds {:#018x} — \
                 this shard ran a different scenario",
                envelope.scenario_digest, self.config.scenario_digest
            ));
        }
        if envelope.shard_count != self.config.shard_count {
            return Err(format!(
                "envelope claims a {}-shard fleet, coordinator holds {}",
                envelope.shard_count, self.config.shard_count
            ));
        }
        let Some(&(start, end)) = self.ranges.get(envelope.shard_index) else {
            return Err(format!(
                "envelope shard index {} out of range for {} shard(s)",
                envelope.shard_index, self.config.shard_count
            ));
        };
        if !is_shard_boundary(start, end, self.config.cadence, envelope.upto) {
            return Err(format!(
                "envelope position {} is not a boundary of shard {} (range {start}..{end}, \
                 cadence {})",
                envelope.upto, envelope.shard_index, self.config.cadence
            ));
        }
        if envelope.measured_runs > envelope.upto - start {
            return Err(format!(
                "envelope claims {} measured runs in a {}-run prefix",
                envelope.measured_runs,
                envelope.upto - start
            ));
        }
        Ok(())
    }
}

impl StopCoordinator for LocalCoordinator {
    fn config(&self) -> Result<CoordinatorConfig, String> {
        Ok(self.config.clone())
    }

    fn submit(&self, envelope: PrefixEnvelope) -> Result<Option<StopDecision>, String> {
        self.check_envelope(&envelope)?;
        let cell_index = envelope.cell_index;
        let mut cells = self.cells.lock().expect("coordinator lock");
        let cell = cells
            .get_mut(cell_index)
            .ok_or_else(|| format!("envelope cell index {cell_index} out of range"))?;
        if let Some(reason) = &cell.failed {
            return Err(format!("cell {cell_index} was abandoned: {reason}"));
        }
        let key = (envelope.shard_index, envelope.upto);
        match cell.envelopes.get(&key) {
            // Idempotent replay (a resumed shard re-walks its prefix):
            // the duplicate must be bit-identical — the digests cover the
            // full content, so comparing them compares everything.
            Some(existing) if existing.digest != envelope.digest => {
                return Err(format!(
                    "shard {} resubmitted a different prefix at run {} of cell {cell_index} — \
                     shard execution diverged; refusing to coordinate",
                    envelope.shard_index, envelope.upto
                ));
            }
            Some(_) => {}
            None => {
                cell.envelopes.insert(key, envelope);
                self.evaluate(cell_index, cell);
            }
        }
        Ok(cell.decision.clone())
    }

    fn decision(&self, cell_index: usize) -> Result<Option<StopDecision>, String> {
        let cells = self.cells.lock().expect("coordinator lock");
        let cell = cells
            .get(cell_index)
            .ok_or_else(|| format!("cell {cell_index} out of range"))?;
        if let Some(reason) = &cell.failed {
            return Err(format!("cell {cell_index} was abandoned: {reason}"));
        }
        Ok(cell.decision.clone())
    }

    fn abandon(&self, cell_index: usize, reason: &str) -> Result<(), String> {
        let mut cells = self.cells.lock().expect("coordinator lock");
        let cell = cells
            .get_mut(cell_index)
            .ok_or_else(|| format!("cell {cell_index} out of range"))?;
        if cell.failed.is_none() {
            cell.failed = Some(reason.to_string());
        }
        self.wake.notify_all();
        Ok(())
    }

    /// Condvar-backed wait (no polling in-process).
    fn wait(&self, cell_index: usize) -> Result<StopDecision, String> {
        let mut cells = self.cells.lock().expect("coordinator lock");
        loop {
            let cell = cells
                .get(cell_index)
                .ok_or_else(|| format!("cell {cell_index} out of range"))?;
            if let Some(reason) = &cell.failed {
                return Err(format!("cell {cell_index} was abandoned: {reason}"));
            }
            if let Some(decision) = &cell.decision {
                return Ok(decision.clone());
            }
            cells = self.wake.wait(cells).expect("coordinator lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::scenario::Workload;
    use crate::session::StopRule;
    use bcbpt_cluster::Protocol;

    fn tiny(runs: usize, stop: StopRule) -> Scenario {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 50;
        base.warmup_ms = 500.0;
        base.window_ms = 5_000.0;
        base.runs = runs;
        let mut s = Scenario::from_experiment("tiny-coord", &base, Workload::TxFlood);
        s.stop = Some(stop);
        s
    }

    fn ci_rule() -> StopRule {
        StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.25,
            min_runs: 2,
        }
    }

    fn envelope_at(
        coord: &LocalCoordinator,
        shard: usize,
        upto: usize,
        samples: &[f64],
    ) -> PrefixEnvelope {
        let mut deltas = StreamingSummary::new();
        let mut run_means = StreamingSummary::new();
        for &x in samples {
            deltas.record(x);
            run_means.record(x);
        }
        let mut env = PrefixEnvelope {
            version: COORD_FORMAT_VERSION,
            scenario_digest: coord.config.scenario_digest,
            cell_index: 0,
            shard_index: shard,
            shard_count: coord.config.shard_count,
            upto,
            deltas,
            run_means,
            measured_runs: samples.len(),
            digest: 0,
        };
        env.seal();
        env
    }

    #[test]
    fn construction_rejects_unsuitable_rules() {
        let fixed = tiny(8, StopRule::FixedRuns);
        let err = LocalCoordinator::new(&fixed, 2, 2).unwrap_err();
        assert!(err.contains("adaptive"), "{err}");

        let wall = tiny(8, StopRule::WallClockMs { budget_ms: 100.0 });
        let err = LocalCoordinator::new(&wall, 2, 2).unwrap_err();
        assert!(err.contains("wall-clock"), "{err}");

        let mut bare = tiny(8, ci_rule());
        bare.stop = None;
        let err = LocalCoordinator::new(&bare, 2, 2).unwrap_err();
        assert!(err.contains("stop rule"), "{err}");

        let err = LocalCoordinator::new(&tiny(8, ci_rule()), 2, 0).unwrap_err();
        assert!(err.contains("cadence"), "{err}");
    }

    #[test]
    fn decision_is_independent_of_envelope_arrival_order() {
        // 8 runs, 2 shards (0..4, 4..8), cadence 2 → checkpoints 2,4,6,8.
        // Feed identical envelopes in two different orders: same verdict.
        let scenario = tiny(8, ci_rule());
        let quiet: Vec<f64> = vec![10.0, 10.01, 10.02, 9.99];
        let build = || LocalCoordinator::new(&scenario, 2, 2).unwrap();

        let forward = build();
        let mut verdicts = Vec::new();
        for (shard, upto, n) in [(0, 2, 2), (0, 4, 4), (1, 6, 2), (1, 8, 4)] {
            let env = envelope_at(&forward, shard, upto, &quiet[..n]);
            verdicts.push(forward.submit(env).unwrap());
        }
        let forward_decision = verdicts
            .last()
            .cloned()
            .flatten()
            .or_else(|| forward.decisions().first().cloned().flatten());

        let backward = build();
        for (shard, upto, n) in [(1, 8, 4), (1, 6, 2), (0, 4, 4), (0, 2, 2)] {
            let env = envelope_at(&backward, shard, upto, &quiet[..n]);
            backward.submit(env).unwrap();
        }
        let backward_decision = backward.decisions().first().cloned().flatten();
        assert_eq!(forward_decision, backward_decision);
        let decision = forward_decision.expect("quiet data decides");
        // Shard 0's first two quiet runs already satisfy the loose CI, so
        // the earliest checkpoint wins regardless of arrival order.
        assert_eq!(decision.stop_at, Some(2), "{decision:?}");
        assert_eq!(forward.runs_saved(), 6);
    }

    #[test]
    fn duplicate_envelopes_are_idempotent_but_divergent_ones_are_rejected() {
        let scenario = tiny(8, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        let env = envelope_at(&coord, 0, 2, &[10.0, 20.0]);
        coord.submit(env.clone()).unwrap();
        coord.submit(env).unwrap();

        let divergent = envelope_at(&coord, 0, 2, &[10.0, 30.0]);
        let err = coord.submit(divergent).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn tampered_and_misaddressed_envelopes_are_rejected() {
        let scenario = tiny(8, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();

        let mut tampered = envelope_at(&coord, 0, 2, &[10.0, 20.0]);
        tampered.measured_runs = 1;
        let err = coord.submit(tampered).unwrap_err();
        assert!(err.contains("digest"), "{err}");

        let mut foreign = envelope_at(&coord, 0, 2, &[10.0, 20.0]);
        foreign.scenario_digest ^= 1;
        foreign.seal();
        let err = coord.submit(foreign).unwrap_err();
        assert!(err.contains("different scenario"), "{err}");

        // Position 3 is neither a cadence multiple nor shard 0's end.
        let off_boundary = envelope_at(&coord, 0, 3, &[10.0, 20.0, 30.0]);
        let err = coord.submit(off_boundary).unwrap_err();
        assert!(err.contains("boundary"), "{err}");
    }

    #[test]
    fn full_budget_without_a_firing_rule_decides_none() {
        // Wildly dispersed means never satisfy a ±25% CI in 4 runs.
        let scenario = tiny(4, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        let wild = [1.0, 400.0];
        for (shard, upto) in [(0usize, 2usize), (1, 4)] {
            let env = envelope_at(&coord, shard, upto, &wild);
            coord.submit(env).unwrap();
        }
        let decision = coord.wait(0).unwrap();
        assert_eq!(decision.stop_at, None);
        assert_eq!(coord.runs_saved(), 0);
        assert!(coord.is_complete());
    }

    #[test]
    fn abandoned_cells_fail_waiters_fast() {
        let scenario = tiny(8, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        coord.abandon(0, "warm failed").unwrap();
        let err = coord.wait(0).unwrap_err();
        assert!(err.contains("abandoned"), "{err}");
        assert!(err.contains("warm failed"), "{err}");
    }

    #[test]
    fn wire_types_round_trip_and_reject_tampering() {
        let scenario = tiny(8, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        let config = coord.config().unwrap();
        config.verify_seal().unwrap();
        let back = CoordinatorConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);

        let env = envelope_at(&coord, 1, 6, &[5.0, 6.0]);
        env.verify_seal().unwrap();
        let back = PrefixEnvelope::from_json(&env.to_json()).unwrap();
        assert_eq!(back, env);

        let decision = coord.decision_for(0, Some(4));
        decision.verify_seal().unwrap();
        let back = StopDecision::from_json(&decision.to_json()).unwrap();
        assert_eq!(back, decision);
        let mut bent = decision;
        bent.stop_at = Some(3);
        assert!(bent.verify_seal().is_err());
    }

    #[test]
    fn preset_decisions_satisfy_waiters_and_conflicts_are_rejected() {
        let scenario = tiny(8, ci_rule());
        let coord = LocalCoordinator::new(&scenario, 2, 2).unwrap();
        coord.preset(0, Some(4)).unwrap();
        assert_eq!(coord.wait(0).unwrap().stop_at, Some(4));
        coord.preset(0, Some(4)).unwrap();
        let err = coord.preset(0, Some(6)).unwrap_err();
        assert!(err.contains("already decided"), "{err}");
        let err = coord.preset(0, Some(0)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = coord.preset(0, Some(8)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
