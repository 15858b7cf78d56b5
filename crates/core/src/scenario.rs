//! The declarative scenario API: campaigns as data.
//!
//! The paper's evaluation (§V) is a grid — protocol × network size ×
//! clustering threshold × workload. Instead of one hand-wired driver per
//! grid cell, a [`Scenario`] describes a cell family declaratively:
//! environment ([`bcbpt_net::NetConfig`]), protocol
//! ([`bcbpt_cluster::ProtocolSpec`], resolved through a
//! [`ProtocolRegistry`]), a [`Workload`], and an optional [`Sweep`] over
//! the paper's axes. Scenarios are fully serde round-trippable, so every
//! experiment is a JSON file under `scenarios/` and one driver binary
//! (`scenario run`) replaces the old per-figure binaries.
//!
//! Running a scenario yields a [`ScenarioOutcome`]: one serializable
//! report type for what used to be four divergent return shapes
//! (campaigns, fork stats, attack stats, overhead tables), with shared
//! [`Summary`]/[`Ecdf`] accessors and the table/figure renderers the old
//! drivers printed.

use crate::adversary::{AdversaryReport, ADVERSARY_COLUMNS};
use crate::attacks::{
    eclipse_exposure_in, partition_resilience_in, EclipseReport, PartitionReport,
};
use crate::experiment::{CampaignResult, ExperimentConfig};
use crate::forks::{fork_experiment_in, ForkReport};
use crate::overhead::{OverheadReport, OVERHEAD_COLUMNS};
use crate::session::{ScenarioSession, StopRule};
use bcbpt_adversary::AdversaryStrategy;
use bcbpt_cluster::{Protocol, ProtocolRegistry, ProtocolSpec};
use bcbpt_geo::ChurnModel;
use bcbpt_net::{NetConfig, RelaySpec};
use bcbpt_stats::{Ecdf, Figure, Series, StatTable, Summary};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Number of points on each rendered CDF curve.
const CURVE_POINTS: usize = 40;

/// What the scenario drives the network with.
///
/// Each variant corresponds to one of the repository's experiment
/// methodologies; the variant's fields are the knobs that used to be
/// hard-coded in a driver binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// The paper's measuring-node methodology (§V.B): repeated watched
    /// transaction floods, harvesting `Δt(m,n)` and arrival delays.
    TxFlood,
    /// Proof-of-work on top of the relay: blocks as a Poisson process,
    /// measuring stale-block rate and tip agreement.
    Mining {
        /// Mean block inter-arrival, ms.
        block_interval_ms: f64,
        /// Mining window after warmup, ms.
        duration_ms: f64,
    },
    /// Partition attack (§V.C future work): cut every inter-cluster link
    /// and measure remaining reachability.
    Partition,
    /// Eclipse attack (§V.C future work): a latency-concentrated adversary
    /// and the share of victim connections it captures.
    Eclipse {
        /// Fraction of the network the adversary controls, in `(0, 1)`.
        adversary_fraction: f64,
        /// Number of victims measured.
        victims: usize,
    },
    /// The §IV.A future-work overhead evaluation: a normal campaign whose
    /// report is the per-node probe/control/gossip/relay budget.
    OverheadProbe,
    /// A transaction-flood campaign under aggressive churn: every node
    /// follows the given session/offline model during warmup and
    /// measurement, stressing relay resilience.
    ChurnBurst {
        /// Median session length, ms.
        median_session_ms: f64,
        /// Lognormal session shape parameter (0 ⇒ deterministic).
        session_sigma: f64,
        /// Mean offline gap before rejoin, ms.
        mean_offline_ms: f64,
    },
    /// A behavioural adversary inside the loop: `attackers` nodes execute
    /// `strategy` (ping spoofing, relay delaying or withholding) from
    /// before warmup, and a full campaign measures what they achieve
    /// against a clean baseline of the same cell.
    Adversarial {
        /// What the attacker-controlled nodes do.
        strategy: AdversaryStrategy,
        /// Number of attacker-controlled nodes (≥ 1; must leave at least
        /// one honest node per cell).
        attackers: usize,
    },
}

impl Workload {
    /// Short family label used by `scenario list` and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::TxFlood => "tx-flood",
            Workload::Mining { .. } => "mining",
            Workload::Partition => "partition",
            Workload::Eclipse { .. } => "eclipse",
            Workload::OverheadProbe => "overhead-probe",
            Workload::ChurnBurst { .. } => "churn-burst",
            Workload::Adversarial { .. } => "adversarial",
        }
    }

    /// Whether the workload runs measuring-node campaigns (and therefore
    /// needs `runs`/`window_ms`).
    pub fn is_campaign(&self) -> bool {
        matches!(
            self,
            Workload::TxFlood
                | Workload::OverheadProbe
                | Workload::ChurnBurst { .. }
                | Workload::Adversarial { .. }
        )
    }

    /// Validates the workload parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite, got {value}"))
            }
        };
        match *self {
            Workload::TxFlood | Workload::Partition | Workload::OverheadProbe => Ok(()),
            Workload::Mining {
                block_interval_ms,
                duration_ms,
            } => {
                positive(block_interval_ms, "block_interval_ms")?;
                positive(duration_ms, "duration_ms")
            }
            Workload::Eclipse {
                adversary_fraction,
                victims,
            } => {
                if !(adversary_fraction > 0.0 && adversary_fraction < 1.0) {
                    return Err(format!(
                        "adversary_fraction must be in (0, 1), got {adversary_fraction}"
                    ));
                }
                if victims == 0 {
                    return Err("victims must be >= 1".to_string());
                }
                Ok(())
            }
            Workload::ChurnBurst {
                median_session_ms,
                session_sigma,
                mean_offline_ms,
            } => {
                positive(median_session_ms, "median_session_ms")?;
                positive(mean_offline_ms, "mean_offline_ms")?;
                if !session_sigma.is_finite() || session_sigma < 0.0 {
                    return Err(format!(
                        "session_sigma must be non-negative and finite, got {session_sigma}"
                    ));
                }
                Ok(())
            }
            Workload::Adversarial {
                ref strategy,
                attackers,
            } => {
                strategy.validate()?;
                if attackers == 0 {
                    return Err(
                        "adversarial workload needs attackers >= 1 (a zero-attacker run \
                         is just TxFlood)"
                            .to_string(),
                    );
                }
                Ok(())
            }
        }
    }
}

/// The paper's sweep axes, as data.
///
/// At most one of `protocols` / `thresholds_ms` may be non-empty (a
/// threshold sweep *is* a protocol sweep over `bcbpt(dt=…)`); `num_nodes`
/// and `relays` compose with either. Empty axes fall back to the
/// scenario's base protocol / network size / relay strategy, so an absent
/// sweep means a single cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sweep {
    /// Protocol axis: one cell per spec (Fig. 3's protocol comparison,
    /// Fig. 4's threshold set).
    pub protocols: Vec<ProtocolSpec>,
    /// BCBPT threshold axis: one cell per `Dth` in milliseconds.
    pub thresholds_ms: Vec<f64>,
    /// Network-size axis: one cell per population.
    pub num_nodes: Vec<usize>,
    /// Block-relay axis: one cell per relay spec (e.g. `"full"`,
    /// `"compact"`, `"rlnc(chunks=16)"`), resolved through
    /// [`bcbpt_relay::registry`]. Empty means the scenario's base relay.
    pub relays: Vec<RelaySpec>,
}

// Hand-written serde: the `relays` axis is omitted when empty so every
// pre-relay scenario file (and its content digest) stays byte-identical,
// and files without the key still parse.
impl Serialize for Sweep {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("protocols".to_string(), self.protocols.to_value()),
            ("thresholds_ms".to_string(), self.thresholds_ms.to_value()),
            ("num_nodes".to_string(), self.num_nodes.to_value()),
        ];
        if !self.relays.is_empty() {
            fields.push(("relays".to_string(), self.relays.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for Sweep {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Sweep"))?;
        let relays = match serde::map_get(m, "relays") {
            serde::Value::Null => Vec::new(),
            other => Deserialize::from_value(other)?,
        };
        Ok(Sweep {
            protocols: Deserialize::from_value(serde::map_get(m, "protocols"))?,
            thresholds_ms: Deserialize::from_value(serde::map_get(m, "thresholds_ms"))?,
            num_nodes: Deserialize::from_value(serde::map_get(m, "num_nodes"))?,
            relays,
        })
    }
}

impl Sweep {
    /// A sweep over protocol specs.
    pub fn over_protocols<P: Into<ProtocolSpec>>(protocols: impl IntoIterator<Item = P>) -> Self {
        Sweep {
            protocols: protocols.into_iter().map(Into::into).collect(),
            ..Sweep::default()
        }
    }

    /// A sweep over BCBPT clustering thresholds.
    pub fn over_thresholds_ms(thresholds_ms: impl IntoIterator<Item = f64>) -> Self {
        Sweep {
            thresholds_ms: thresholds_ms.into_iter().collect(),
            ..Sweep::default()
        }
    }

    /// A sweep over network sizes.
    pub fn over_num_nodes(num_nodes: impl IntoIterator<Item = usize>) -> Self {
        Sweep {
            num_nodes: num_nodes.into_iter().collect(),
            ..Sweep::default()
        }
    }

    /// A sweep over block-relay strategies.
    pub fn over_relays<R: Into<RelaySpec>>(relays: impl IntoIterator<Item = R>) -> Self {
        Sweep {
            relays: relays.into_iter().map(Into::into).collect(),
            ..Sweep::default()
        }
    }

    /// Human-readable summary of the active axes, e.g.
    /// `"3 protocols"` or `"8 thresholds × 2 sizes"` (`"single cell"`
    /// when every axis is empty) — what `scenario list` prints.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if !self.protocols.is_empty() {
            parts.push(format!("{} protocols", self.protocols.len()));
        }
        if !self.thresholds_ms.is_empty() {
            parts.push(format!("{} thresholds", self.thresholds_ms.len()));
        }
        if !self.num_nodes.is_empty() {
            parts.push(format!("{} sizes", self.num_nodes.len()));
        }
        if !self.relays.is_empty() {
            parts.push(format!("{} relays", self.relays.len()));
        }
        if parts.is_empty() {
            "single cell".to_string()
        } else {
            parts.join(" × ")
        }
    }
}

/// One expanded sweep cell: the protocol and environment overrides a
/// single experiment runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Row label in tables and figures.
    pub label: String,
    /// The protocol of this cell.
    pub protocol: ProtocolSpec,
    /// The network size of this cell.
    pub num_nodes: usize,
    /// The block-relay strategy of this cell (`None` relays full bodies
    /// with waste accounting off).
    pub relay: Option<RelaySpec>,
}

/// A declarative experiment description — the unit the `scenario` driver
/// binary loads, validates and runs.
///
/// # Examples
///
/// Declaring and running a (tiny) protocol-comparison scenario:
///
/// ```no_run
/// use bcbpt_core::Scenario;
///
/// let mut scenario = Scenario::builtin("fig3").expect("built-in");
/// scenario.net.num_nodes = 60;
/// scenario.runs = 2;
/// let outcome = scenario.run()?;
/// println!("{}", outcome.render());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; used as the report caption and the `scenarios/` file
    /// stem.
    pub name: String,
    /// The simulated network environment.
    pub net: NetConfig,
    /// Base protocol (used when the sweep has no protocol axis).
    pub protocol: ProtocolSpec,
    /// Optional base block-relay strategy (used when the sweep has no
    /// relay axis); `None` relays full bodies with waste accounting off.
    pub relay: Option<RelaySpec>,
    /// What to drive the network with.
    pub workload: Workload,
    /// Optional sweep over protocol / threshold / size axes.
    pub sweep: Option<Sweep>,
    /// Optional adaptive run budget ([`StopRule`]); absent means
    /// [`StopRule::FixedRuns`] — consume the whole `runs` budget, the
    /// batch behaviour. Only streaming campaign workloads (tx-flood,
    /// churn-burst, overhead-probe) may declare an adaptive rule.
    pub stop: Option<StopRule>,
    /// Measuring runs per campaign cell (paper: ≈1000). An adaptive
    /// `stop` rule may end a cell earlier; this stays the hard ceiling.
    pub runs: usize,
    /// Cluster-formation warmup before measurement, ms.
    pub warmup_ms: f64,
    /// Measurement window per run, ms.
    pub window_ms: f64,
    /// Master seed; every stream derives from it.
    pub seed: u64,
}

// Hand-written serde: the optional `relay` field is omitted when `None`,
// so every pre-relay scenario file — and, crucially, its canonical
// content digest — stays byte-identical. Field order matches declaration
// order (the digest's canonicality contract).
impl Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("net".to_string(), self.net.to_value()),
            ("protocol".to_string(), self.protocol.to_value()),
        ];
        if let Some(relay) = &self.relay {
            fields.push(("relay".to_string(), relay.to_value()));
        }
        fields.extend([
            ("workload".to_string(), self.workload.to_value()),
            ("sweep".to_string(), self.sweep.to_value()),
            ("stop".to_string(), self.stop.to_value()),
            ("runs".to_string(), self.runs.to_value()),
            ("warmup_ms".to_string(), self.warmup_ms.to_value()),
            ("window_ms".to_string(), self.window_ms.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ]);
        serde::Value::Map(fields)
    }
}

impl Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Scenario"))?;
        Ok(Scenario {
            name: Deserialize::from_value(serde::map_get(m, "name"))?,
            net: Deserialize::from_value(serde::map_get(m, "net"))?,
            protocol: Deserialize::from_value(serde::map_get(m, "protocol"))?,
            relay: Deserialize::from_value(serde::map_get(m, "relay"))?,
            workload: Deserialize::from_value(serde::map_get(m, "workload"))?,
            sweep: Deserialize::from_value(serde::map_get(m, "sweep"))?,
            stop: Deserialize::from_value(serde::map_get(m, "stop"))?,
            runs: Deserialize::from_value(serde::map_get(m, "runs"))?,
            warmup_ms: Deserialize::from_value(serde::map_get(m, "warmup_ms"))?,
            window_ms: Deserialize::from_value(serde::map_get(m, "window_ms"))?,
            seed: Deserialize::from_value(serde::map_get(m, "seed"))?,
        })
    }
}

impl Scenario {
    /// Wraps an [`ExperimentConfig`] environment into a named scenario.
    pub fn from_experiment(
        name: impl Into<String>,
        base: &ExperimentConfig,
        workload: Workload,
    ) -> Self {
        Scenario {
            name: name.into(),
            net: base.net.clone(),
            protocol: base.protocol.clone(),
            relay: base.relay.clone(),
            workload,
            sweep: None,
            stop: None,
            runs: base.runs,
            warmup_ms: base.warmup_ms,
            window_ms: base.window_ms,
            seed: base.seed,
        }
    }

    /// Sets the sweep, builder-style.
    #[must_use]
    pub fn with_sweep(mut self, sweep: Sweep) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Declares an adaptive run budget, builder-style.
    #[must_use]
    pub fn with_stop(mut self, stop: StopRule) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Serializes the scenario as human-editable, indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }

    /// The scenario's canonical content digest: FNV-1a (64-bit) over the
    /// canonical compact JSON serialization. Canonical because the derive
    /// serializer emits struct fields in declaration order — parsing a
    /// field-reordered or re-indented JSON file and digesting the result
    /// yields the same value, while any content change (a different seed,
    /// one more run) yields a different one. This is the key of the
    /// service's outcome store: two submissions with equal digests
    /// describe byte-identical experiments, so the stored outcome can be
    /// replayed verbatim. It is also the identity every shard part,
    /// checkpoint and coordinator envelope echoes ([`crate::wire`]): parts
    /// merge, and a checkpoint resumes, only under the digest of the exact
    /// scenario at hand. Wire-format skew is a separate matter, caught by
    /// each envelope's own `version`.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("scenario serializes");
        crate::wire::fnv1a64(json.as_bytes())
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid scenario: {e}"))
    }

    /// Validates the scenario against the built-in protocol set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_in(&ProtocolRegistry::builtins())
    }

    /// Validates the scenario against `registry`: structural constraints,
    /// workload parameters, and that every cell's protocol resolves and
    /// every cell's network configuration is consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate_in(&self, registry: &ProtocolRegistry) -> Result<(), String> {
        if self.name.trim().is_empty() {
            return Err("scenario name must not be empty".to_string());
        }
        self.workload.validate()?;
        if !self.warmup_ms.is_finite() || self.warmup_ms < 0.0 {
            return Err(format!(
                "warmup_ms must be non-negative and finite, got {}",
                self.warmup_ms
            ));
        }
        if self.workload.is_campaign() {
            if self.runs == 0 {
                return Err(format!("{} workload needs runs >= 1", self.workload.kind()));
            }
            if !self.window_ms.is_finite() || self.window_ms <= 0.0 {
                return Err(format!(
                    "window_ms must be positive and finite, got {}",
                    self.window_ms
                ));
            }
        }
        if let Some(stop) = &self.stop {
            self.validate_stop_rule(stop)?;
        }
        if let Some(sweep) = &self.sweep {
            if !sweep.protocols.is_empty() && !sweep.thresholds_ms.is_empty() {
                return Err(
                    "sweep cannot set both protocols and thresholds_ms (a threshold sweep \
                     is a protocol sweep over bcbpt(dt=…))"
                        .to_string(),
                );
            }
            for &dt in &sweep.thresholds_ms {
                if !dt.is_finite() || dt <= 0.0 {
                    return Err(format!(
                        "sweep threshold must be positive and finite, got {dt}"
                    ));
                }
            }
            let mut seen_relays = std::collections::BTreeSet::new();
            for relay in &sweep.relays {
                if relay.to_string().trim().is_empty() {
                    return Err("sweep relay spec must not be empty".to_string());
                }
                if !seen_relays.insert(relay.clone()) {
                    return Err(format!(
                        "sweep relay {relay:?} appears twice — relay labels must be unique"
                    ));
                }
            }
        }
        let relay_registry = bcbpt_relay::registry();
        for cell in self.cells() {
            let cfg = self.cell_config(&cell);
            cfg.net
                .validate()
                .map_err(|e| format!("cell {:?}: {e}", cell.label))?;
            registry
                .build(&cell.protocol)
                .map_err(|e| format!("cell {:?}: {e}", cell.label))?;
            if let Some(relay) = &cell.relay {
                relay_registry
                    .build(relay)
                    .map_err(|e| format!("cell {:?}: {e}", cell.label))?;
            }
            // Population-relative workload constraints are per cell: a size
            // sweep may shrink the network below the attacker/victim count.
            match self.workload {
                Workload::Adversarial { attackers, .. } if attackers >= cell.num_nodes => {
                    return Err(format!(
                        "cell {:?}: attackers ({attackers}) must be fewer than nodes ({})",
                        cell.label, cell.num_nodes
                    ));
                }
                Workload::Eclipse { victims, .. } if victims > cell.num_nodes => {
                    return Err(format!(
                        "cell {:?}: victims ({victims}) exceed nodes ({})",
                        cell.label, cell.num_nodes
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Expands the sweep into concrete cells, protocol axis outermost.
    pub fn cells(&self) -> Vec<ScenarioCell> {
        let sweep = self.sweep.clone().unwrap_or_default();
        let protocols: Vec<ProtocolSpec> = if !sweep.thresholds_ms.is_empty() {
            sweep
                .thresholds_ms
                .iter()
                .map(|&dt| ProtocolSpec::from(Protocol::Bcbpt { threshold_ms: dt }))
                .collect()
        } else if !sweep.protocols.is_empty() {
            sweep.protocols.clone()
        } else {
            vec![self.protocol.clone()]
        };
        let sizes: Vec<usize> = if sweep.num_nodes.is_empty() {
            vec![self.net.num_nodes]
        } else {
            sweep.num_nodes.clone()
        };
        let relays: Vec<Option<RelaySpec>> = if sweep.relays.is_empty() {
            vec![self.relay.clone()]
        } else {
            sweep.relays.iter().cloned().map(Some).collect()
        };
        let size_axis = !sweep.num_nodes.is_empty();
        let relay_axis = !sweep.relays.is_empty();
        let mut cells = Vec::with_capacity(protocols.len() * relays.len() * sizes.len());
        for protocol in &protocols {
            for relay in &relays {
                for &num_nodes in &sizes {
                    let mut label = protocol.to_string();
                    if relay_axis {
                        if let Some(relay) = relay {
                            label.push_str(&format!(" × {relay}"));
                        }
                    }
                    if size_axis {
                        label.push_str(&format!(" @n={num_nodes}"));
                    }
                    cells.push(ScenarioCell {
                        label,
                        protocol: protocol.clone(),
                        num_nodes,
                        relay: relay.clone(),
                    });
                }
            }
        }
        cells
    }

    /// The [`ExperimentConfig`] one cell runs with (workload overrides —
    /// e.g. the churn-burst model — included).
    pub fn cell_config(&self, cell: &ScenarioCell) -> ExperimentConfig {
        let mut net = self.net.clone();
        net.num_nodes = cell.num_nodes;
        if let Workload::ChurnBurst {
            median_session_ms,
            session_sigma,
            mean_offline_ms,
        } = self.workload
        {
            net.churn = ChurnModel {
                median_session_ms,
                session_sigma,
                mean_offline_ms,
            };
        }
        ExperimentConfig {
            net,
            protocol: cell.protocol.clone(),
            relay: cell.relay.clone(),
            warmup_ms: self.warmup_ms,
            window_ms: self.window_ms,
            runs: self.runs,
            seed: self.seed,
        }
    }

    /// Checks that `stop` is internally valid and compatible with the
    /// workload: only streaming campaign workloads can stop adaptively.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate_stop_rule(&self, stop: &StopRule) -> Result<(), String> {
        stop.validate()?;
        if stop.is_adaptive()
            && !matches!(
                self.workload,
                Workload::TxFlood | Workload::ChurnBurst { .. } | Workload::OverheadProbe
            )
        {
            return Err(format!(
                "adaptive stop rule ({}) requires a streaming campaign workload \
                 (tx-flood, churn-burst or overhead-probe), not {}",
                stop.label(),
                self.workload.kind()
            ));
        }
        Ok(())
    }

    /// Opens a [`ScenarioSession`] over this scenario: attach observers,
    /// pick a [`StopRule`], a thread count or a warm cache, then
    /// [`block`](ScenarioSession::block) for the outcome.
    pub fn session(&self) -> ScenarioSession<'_> {
        ScenarioSession::new(self)
    }

    /// Runs the scenario against the built-in protocol set with its
    /// declared stop rule (default [`StopRule::FixedRuns`]) — a
    /// [`session`](Self::session) with every option at its default, i.e.
    /// shard 0/1 of the scenario executor behind [`run_shard`](crate::run_shard).
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors.
    pub fn run(&self) -> Result<ScenarioOutcome, String> {
        self.session().block()
    }

    /// Runs the scenario with protocols resolved against `registry` —
    /// custom registered policies run anywhere a built-in does.
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors.
    pub fn run_in(&self, registry: &ProtocolRegistry) -> Result<ScenarioOutcome, String> {
        self.session().block_in(registry)
    }

    /// [`run`](Self::run) with any declared `stop` rule ignored: every
    /// cell consumes its whole `runs` budget. Runs a copy of the scenario
    /// with `stop = None` through the same executor.
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors.
    pub fn run_batch(&self) -> Result<ScenarioOutcome, String> {
        self.run_batch_in(&ProtocolRegistry::builtins())
    }

    /// [`run_batch`](Self::run_batch) with protocols resolved against
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Propagates validation and configuration errors.
    pub fn run_batch_in(&self, registry: &ProtocolRegistry) -> Result<ScenarioOutcome, String> {
        Scenario {
            stop: None,
            ..self.clone()
        }
        .run_in(registry)
    }

    /// Runs one cell of an indivisible experiment — legacy single-shot
    /// mining (`runs: 0`), eclipse exposure, partition resilience — whole.
    /// Every other workload splits by run range and executes in
    /// [`crate::shard`].
    pub(crate) fn run_single_shot_cell(
        &self,
        registry: &ProtocolRegistry,
        cell: &ScenarioCell,
    ) -> Result<CellReport, String> {
        let cfg = self.cell_config(cell);
        Ok(match &self.workload {
            Workload::Mining {
                block_interval_ms,
                duration_ms,
            } => CellReport::Forks {
                report: fork_experiment_in(
                    registry,
                    &cfg,
                    cell.protocol.clone(),
                    *block_interval_ms,
                    *duration_ms,
                )?,
            },
            Workload::Eclipse {
                adversary_fraction,
                victims,
            } => CellReport::Eclipse {
                report: eclipse_exposure_in(
                    registry,
                    &cfg,
                    cell.protocol.clone(),
                    *adversary_fraction,
                    *victims,
                )?,
            },
            Workload::Partition => CellReport::Partition {
                report: partition_resilience_in(registry, &cfg, cell.protocol.clone())?,
            },
            other => {
                return Err(format!(
                    "{} cells split by run range; they have no single-shot form",
                    other.kind()
                ))
            }
        })
    }
}

/// One cell's result inside a [`ScenarioOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellReport {
    /// A measuring-node campaign (tx-flood and churn-burst workloads).
    Campaign {
        /// The campaign.
        campaign: CampaignResult,
    },
    /// The overhead budget of a campaign (overhead-probe workload).
    Overhead {
        /// The per-node budget.
        report: OverheadReport,
    },
    /// Proof-of-work fork statistics (mining workload).
    Forks {
        /// The fork report.
        report: ForkReport,
    },
    /// Eclipse-exposure statistics.
    Eclipse {
        /// The eclipse report.
        report: EclipseReport,
    },
    /// Partition-resilience statistics.
    Partition {
        /// The partition report.
        report: PartitionReport,
    },
    /// A behavioural-adversary campaign next to its clean baseline.
    Adversary {
        /// The adversary report.
        report: AdversaryReport,
    },
    /// The cell failed at run time; the error is preserved so renderers can
    /// surface it instead of NaN-padding a row.
    Failed {
        /// The run-time error.
        error: String,
    },
}

/// Lazily-computed pooled `Δt(m,n)` statistics, excluded from
/// serialization and equality; filled on first use.
#[derive(Debug, Clone, Default)]
struct StatsCache {
    summary: OnceLock<Option<Summary>>,
    ecdf: OnceLock<Option<Ecdf>>,
}

/// One sweep cell's labelled outcome.
///
/// The pooled-statistics accessors ([`delta_summary`](Self::delta_summary),
/// [`delta_ecdf`](Self::delta_ecdf)) are cached after first use. An
/// outcome is a result record, not a builder — if you mutate `report`
/// after calling an accessor, build a fresh outcome with
/// [`CellOutcome::new`] instead of reusing the stale one.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label (protocol label, plus `@n=…` on a size sweep).
    pub label: String,
    /// The protocol spec the cell ran.
    pub protocol: String,
    /// Network size the cell ran at.
    pub num_nodes: usize,
    /// The workload-specific report.
    pub report: CellReport,
    /// Cached pooled statistics (not serialized, not compared).
    cache: StatsCache,
}

impl PartialEq for CellOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.protocol == other.protocol
            && self.num_nodes == other.num_nodes
            && self.report == other.report
    }
}

impl Serialize for CellOutcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("label".to_string(), self.label.to_value()),
            ("protocol".to_string(), self.protocol.to_value()),
            ("num_nodes".to_string(), self.num_nodes.to_value()),
            ("report".to_string(), self.report.to_value()),
        ])
    }
}

impl Deserialize for CellOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for CellOutcome"))?;
        Ok(CellOutcome::new(
            Deserialize::from_value(serde::map_get(m, "label"))?,
            Deserialize::from_value(serde::map_get(m, "protocol"))?,
            Deserialize::from_value(serde::map_get(m, "num_nodes"))?,
            Deserialize::from_value(serde::map_get(m, "report"))?,
        ))
    }
}

impl CellOutcome {
    /// Builds a cell outcome with an empty stats cache.
    pub fn new(label: String, protocol: String, num_nodes: usize, report: CellReport) -> Self {
        CellOutcome {
            label,
            protocol,
            num_nodes,
            report,
            cache: StatsCache::default(),
        }
    }

    /// The underlying campaign, when the workload produced one (for
    /// adversarial cells: the *attacked* campaign).
    pub fn campaign(&self) -> Option<&CampaignResult> {
        match &self.report {
            CellReport::Campaign { campaign } => Some(campaign),
            CellReport::Adversary { report } => Some(&report.campaign),
            _ => None,
        }
    }

    /// The run-time error of a failed cell.
    pub fn error(&self) -> Option<&str> {
        match &self.report {
            CellReport::Failed { error } => Some(error),
            _ => None,
        }
    }

    /// Streaming summary of this cell's pooled `Δt(m,n)` samples.
    /// Computed once and cached.
    pub fn delta_summary(&self) -> Option<Summary> {
        *self
            .cache
            .summary
            .get_or_init(|| self.campaign().map(CampaignResult::delta_summary))
    }

    /// ECDF of this cell's pooled `Δt(m,n)` samples (`None` when the
    /// workload has none, or no run produced a delta). Computed once and
    /// cached.
    pub fn delta_ecdf(&self) -> Option<Ecdf> {
        self.cache
            .ecdf
            .get_or_init(|| self.campaign().and_then(|c| c.delta_ecdf().ok()))
            .clone()
    }
}

/// The unified result of a scenario: what used to be four divergent return
/// types (campaign results, fork stats, attack stats, overhead tables)
/// behind one serializable report.
///
/// Like [`CellOutcome`], the pooled-statistics accessors are cached
/// after first use; treat an outcome as immutable once read, and build a
/// fresh one ([`ScenarioOutcome::new`]) rather than mutating `cells`
/// afterwards.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub scenario: String,
    /// The workload that ran (echoed for self-description).
    pub workload: Workload,
    /// Per-cell outcomes, in sweep order.
    pub cells: Vec<CellOutcome>,
    /// Cached pooled statistics (not serialized, not compared).
    cache: StatsCache,
}

impl PartialEq for ScenarioOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.scenario == other.scenario
            && self.workload == other.workload
            && self.cells == other.cells
    }
}

impl Serialize for ScenarioOutcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("cells".to_string(), self.cells.to_value()),
        ])
    }
}

impl Deserialize for ScenarioOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for ScenarioOutcome"))?;
        Ok(ScenarioOutcome::new(
            Deserialize::from_value(serde::map_get(m, "scenario"))?,
            Deserialize::from_value(serde::map_get(m, "workload"))?,
            Deserialize::from_value(serde::map_get(m, "cells"))?,
        ))
    }
}

impl ScenarioOutcome {
    /// Builds an outcome with an empty stats cache.
    pub fn new(scenario: String, workload: Workload, cells: Vec<CellOutcome>) -> Self {
        ScenarioOutcome {
            scenario,
            workload,
            cells,
            cache: StatsCache::default(),
        }
    }
    /// Serializes the outcome as indented JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("outcome serializes")
    }

    /// Parses an outcome from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid outcome: {e}"))
    }

    /// Summary of the `Δt(m,n)` samples pooled across every campaign cell.
    /// Computed once and cached.
    pub fn delta_summary(&self) -> Summary {
        self.cache
            .summary
            .get_or_init(|| {
                Some(
                    self.cells
                        .iter()
                        .filter_map(CellOutcome::campaign)
                        .flat_map(CampaignResult::deltas_ms)
                        .collect(),
                )
            })
            .unwrap_or_default()
    }

    /// ECDF of the pooled `Δt(m,n)` samples across every campaign cell
    /// (`None` when no cell carries deltas). Computed once and cached.
    pub fn delta_ecdf(&self) -> Option<Ecdf> {
        self.cache
            .ecdf
            .get_or_init(|| {
                Ecdf::from_samples(
                    self.cells
                        .iter()
                        .filter_map(CellOutcome::campaign)
                        .flat_map(CampaignResult::deltas_ms),
                )
                .ok()
            })
            .clone()
    }

    /// Run-time problems per cell, in sweep order: hard cell failures
    /// ([`CellReport::Failed`]) and campaign cells that produced no
    /// `Δt(m,n)` samples. Renderers print these instead of NaN-padding
    /// rows.
    pub fn cell_errors(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .filter_map(|cell| match &cell.report {
                CellReport::Failed { error } => Some((cell.label.clone(), error.clone())),
                CellReport::Campaign { campaign } if campaign.delta_ecdf().is_err() => Some((
                    cell.label.clone(),
                    "campaign produced no Δt samples".to_string(),
                )),
                CellReport::Adversary { report } if !report.slowdown.is_finite() => Some((
                    cell.label.clone(),
                    "adversarial campaign recorded no arrival samples".to_string(),
                )),
                _ => None,
            })
            .collect()
    }

    /// The workload family's summary table — the same columns the old
    /// per-figure drivers printed. Failed cells contribute no row; their
    /// errors are in [`cell_errors`](Self::cell_errors) and appended by
    /// [`render`](Self::render).
    pub fn table(&self) -> StatTable {
        let title = format!("{} — {}", self.scenario, self.workload.kind());
        match &self.workload {
            Workload::TxFlood | Workload::ChurnBurst { .. } => {
                let mut table = StatTable::new(
                    format!("{title} — Δt(m,n) in ms"),
                    &[
                        "mean",
                        "variance",
                        "median",
                        "p90",
                        "max",
                        "samples",
                        "coverage",
                        "clusters",
                        "max_cluster",
                    ],
                );
                for cell in &self.cells {
                    let Some(campaign) = cell.campaign() else {
                        continue;
                    };
                    // Sample-free campaigns are reported via cell_errors,
                    // not as a NaN row.
                    let Ok(e) = campaign.delta_ecdf() else {
                        continue;
                    };
                    let mut row = vec![
                        e.mean(),
                        e.sample_variance(),
                        e.median(),
                        e.quantile(0.9),
                        e.max(),
                        e.len() as f64,
                    ];
                    row.push(campaign.mean_coverage());
                    row.push(campaign.cluster_sizes.len() as f64);
                    row.push(campaign.cluster_sizes.first().copied().unwrap_or(0) as f64);
                    table.push_row(cell.label.clone(), row);
                }
                table
            }
            Workload::OverheadProbe => {
                let mut table = StatTable::new(
                    format!("{title} — messages per node over the campaign"),
                    &OVERHEAD_COLUMNS,
                );
                for cell in &self.cells {
                    if let CellReport::Overhead { report } = &cell.report {
                        table.push_row(cell.label.clone(), report.row());
                    }
                }
                table
            }
            Workload::Mining { .. } => {
                // When any cell ran an instrumented relay strategy, the
                // table pairs the fork statistics with propagation delay
                // and wire-level waste — the delay-vs-waste trade-off the
                // relay sweep exists to expose.
                let relay_columns = self.cells.iter().any(|cell| {
                    matches!(&cell.report, CellReport::Forks { report } if report.relay.is_some())
                });
                let columns: &[&str] = if relay_columns {
                    &[
                        "mined",
                        "stale",
                        "stale_rate",
                        "tip_agreement",
                        "delay_ms",
                        "wire_mb",
                        "waste",
                    ]
                } else {
                    &["mined", "stale", "stale_rate", "tip_agreement"]
                };
                let mut table = StatTable::new(format!("{title} — proof-of-work forks"), columns);
                for cell in &self.cells {
                    if let CellReport::Forks { report } = &cell.report {
                        let mut row = vec![
                            report.mined as f64,
                            report.stale as f64,
                            report.stale_rate,
                            report.tip_agreement,
                        ];
                        if relay_columns {
                            match &report.relay {
                                Some(ext) => row.extend([
                                    ext.block_delay_ms,
                                    ext.bandwidth.bytes_on_wire as f64 / 1e6,
                                    ext.bandwidth.waste_ratio,
                                ]),
                                None => row.extend([0.0, 0.0, 0.0]),
                            }
                        }
                        table.push_row(cell.label.clone(), row);
                    }
                }
                table
            }
            Workload::Eclipse { .. } => {
                let mut table = StatTable::new(
                    format!("{title} — adversary concentrated near the victim"),
                    &["adv_fraction", "mean_bad_share", "max_bad_share", "victims"],
                );
                for cell in &self.cells {
                    if let CellReport::Eclipse { report } = &cell.report {
                        table.push_row(
                            cell.label.clone(),
                            vec![
                                report.adversary_fraction,
                                report.mean_malicious_peer_share,
                                report.max_malicious_peer_share,
                                report.victims as f64,
                            ],
                        );
                    }
                }
                table
            }
            Workload::Partition => {
                let mut table = StatTable::new(
                    format!("{title} — cut all inter-cluster links"),
                    &["cut_edges", "total_edges", "reachable_after"],
                );
                for cell in &self.cells {
                    if let CellReport::Partition { report } = &cell.report {
                        table.push_row(
                            cell.label.clone(),
                            vec![
                                report.cut_edges as f64,
                                report.total_edges as f64,
                                report.reachable_after_cut,
                            ],
                        );
                    }
                }
                table
            }
            Workload::Adversarial { strategy, .. } => {
                let mut table = StatTable::new(
                    format!(
                        "{title} — {} attackers in the loop, vs clean baseline",
                        strategy.label()
                    ),
                    &ADVERSARY_COLUMNS,
                );
                for cell in &self.cells {
                    if let CellReport::Adversary { report } = &cell.report {
                        // Arrival-free cells go through cell_errors, not as
                        // a NaN row.
                        if report.slowdown.is_finite() {
                            table.push_row(cell.label.clone(), report.row());
                        }
                    }
                }
                table
            }
        }
    }

    /// CDF figure of `Δt(m,n)` per campaign cell (`None` for workloads
    /// without delay samples).
    pub fn figure(&self) -> Option<Figure> {
        let mut figure = Figure::new(self.scenario.clone(), "delta_t_ms", "cdf");
        for cell in &self.cells {
            if let Some(ecdf) = cell.delta_ecdf() {
                figure.push_series(Series::new(cell.label.clone(), ecdf.curve(CURVE_POINTS)));
            }
        }
        if figure.series.is_empty() {
            None
        } else {
            Some(figure)
        }
    }

    /// Renders the outcome as plain text: the CDF figure (when the
    /// workload yields delay samples), the summary table, and one line per
    /// failed/sample-free cell.
    pub fn render(&self) -> String {
        let mut out = match self.figure() {
            Some(figure) => format!("{}\n{}", figure.render_columns(), self.table().render()),
            None => self.table().render(),
        };
        for (label, error) in self.cell_errors() {
            out.push_str(&format!("! cell {label}: {error}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Built-in scenarios: the paper's figures and extensions as data.
// ---------------------------------------------------------------------

/// The three protocols of the paper's Fig. 3 comparison.
fn paper_protocols() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::from(Protocol::Bitcoin),
        ProtocolSpec::from(Protocol::Lbc),
        ProtocolSpec::from(Protocol::bcbpt_paper()),
    ]
}

/// The demo-scale environment the old figure binaries defaulted to.
fn demo_environment(num_nodes: usize, runs: usize) -> Scenario {
    let mut net = NetConfig::test_scale();
    net.num_nodes = num_nodes;
    Scenario {
        name: String::new(),
        net,
        protocol: ProtocolSpec::from(Protocol::Bitcoin),
        relay: None,
        workload: Workload::TxFlood,
        sweep: None,
        stop: None,
        runs,
        warmup_ms: 5_000.0,
        window_ms: 20_000.0,
        seed: 0xBCB9,
    }
}

impl Scenario {
    /// Names of the built-in scenarios, one per paper figure or extension
    /// experiment (the set `scenario list`/`scenario export` covers).
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "fig3",
            "fig4",
            "sweep",
            "forks",
            "eclipse",
            "partition",
            "overhead",
            "churn",
            "pingspoof",
            "withhold",
            "relay",
        ]
    }

    /// One-line description of a built-in scenario.
    pub fn builtin_description(name: &str) -> Option<&'static str> {
        Some(match name {
            "fig3" => "Fig. 3: Δt(m,n) distribution, Bitcoin vs LBC vs BCBPT (dt=25ms)",
            "fig4" => "Fig. 4: Δt(m,n) distribution, BCBPT at dt = 30/50/100 ms",
            "sweep" => "Extension: fine-grained BCBPT threshold sweep",
            "forks" => "Extension: stale-block rate under proof-of-work per protocol",
            "eclipse" => "§V.C future work: eclipse exposure per protocol",
            "partition" => "§V.C future work: partition resilience per protocol",
            "overhead" => "§IV.A future work: probe/control/relay budget per protocol",
            "churn" => "Extension: tx-flood campaign under burst churn",
            "pingspoof" => "§V.C behavioural: attackers forge RTT probes to infiltrate clusters",
            "withhold" => "§V.C behavioural: attackers blackhole half the relays they owe",
            "relay" => "Extension: propagation delay vs bandwidth waste per relay strategy",
            _ => return None,
        })
    }

    /// The built-in scenario called `name` at the demo scale the deleted
    /// per-figure binaries ran by default (seeded identically, so results
    /// reproduce byte-for-byte).
    pub fn builtin(name: &str) -> Option<Scenario> {
        let scenario = match name {
            "fig3" => {
                demo_environment(400, 40).with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "fig4" => demo_environment(400, 40).with_sweep(Sweep::over_protocols([
                Protocol::Bcbpt { threshold_ms: 30.0 },
                Protocol::Bcbpt { threshold_ms: 50.0 },
                Protocol::Bcbpt {
                    threshold_ms: 100.0,
                },
            ])),
            // The sweep declares an adaptive budget: each threshold cell
            // stops as soon as its Δt mean is known to ±5 % (95 % CI)
            // instead of always burning the full 25 runs.
            "sweep" => demo_environment(400, 25)
                .with_sweep(Sweep::over_thresholds_ms([
                    10.0, 25.0, 30.0, 50.0, 75.0, 100.0, 150.0, 200.0,
                ]))
                .with_stop(StopRule::CiHalfWidth {
                    level: 0.95,
                    rel_width: 0.05,
                    min_runs: 8,
                }),
            "forks" => {
                // Two replicated 150 s mining windows per cell (same
                // total mining time as the old single 300 s shot, now a
                // run-range-shardable campaign with per-run replicates).
                let mut s = demo_environment(400, 2);
                // Compact-block relay keeps block propagation latency-bound
                // (see EXPERIMENTS.md): with full 200 KB blocks the
                // protocols tie on serialization cost.
                s.net.block_size_bytes = 20_000;
                s.workload = Workload::Mining {
                    block_interval_ms: 1_000.0,
                    duration_ms: 150_000.0,
                };
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "eclipse" => {
                let mut s = demo_environment(300, 0);
                s.workload = Workload::Eclipse {
                    adversary_fraction: 0.10,
                    victims: 10,
                };
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "partition" => {
                let mut s = demo_environment(300, 0);
                s.workload = Workload::Partition;
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "overhead" => {
                let mut s = demo_environment(300, 10);
                s.workload = Workload::OverheadProbe;
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "churn" => {
                let mut s = demo_environment(150, 8);
                s.warmup_ms = 3_000.0;
                s.workload = Workload::ChurnBurst {
                    median_session_ms: 60_000.0,
                    session_sigma: 1.0,
                    mean_offline_ms: 20_000.0,
                };
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "pingspoof" => {
                // 10% of the population forges proximity from before
                // cluster formation; the table answers the paper's §V.C
                // question per protocol: how infiltrable, at what cost.
                let mut s = demo_environment(300, 10);
                s.workload = Workload::Adversarial {
                    strategy: AdversaryStrategy::PingSpoof { spoof_factor: 0.05 },
                    attackers: 30,
                };
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "withhold" => {
                let mut s = demo_environment(300, 10);
                s.workload = Workload::Adversarial {
                    strategy: AdversaryStrategy::Withhold { drop_fraction: 0.5 },
                    attackers: 30,
                };
                s.with_sweep(Sweep::over_protocols(paper_protocols()))
            }
            "relay" => {
                // The delay-vs-waste grid: both clustering regimes under
                // every relay family. Same mining environment as "forks"
                // so the delay columns compare against a known baseline.
                let mut s = demo_environment(400, 2);
                s.net.block_size_bytes = 20_000;
                s.workload = Workload::Mining {
                    block_interval_ms: 1_000.0,
                    duration_ms: 150_000.0,
                };
                s.with_sweep(Sweep {
                    protocols: vec![
                        ProtocolSpec::from(Protocol::Bitcoin),
                        ProtocolSpec::from(Protocol::bcbpt_paper()),
                    ],
                    thresholds_ms: vec![],
                    num_nodes: vec![],
                    relays: vec![
                        RelaySpec::new("full"),
                        RelaySpec::new("compact"),
                        RelaySpec::new("rlnc(chunks=16)"),
                    ],
                })
            }
            _ => return None,
        };
        Some(Scenario {
            name: name.to_string(),
            ..scenario
        })
    }

    /// A CI-scale copy: same shape, shrunk population/runs/windows so one
    /// cell finishes in about a second in release builds (`scenario quick`).
    #[must_use]
    pub fn quick_scaled(&self) -> Self {
        let mut s = self.clone();
        s.net.num_nodes = s.net.num_nodes.min(120);
        s.runs = s.runs.min(4);
        s.warmup_ms = s.warmup_ms.min(2_000.0);
        s.window_ms = s.window_ms.min(15_000.0);
        if let Workload::Mining { duration_ms, .. } = &mut s.workload {
            // Total quick mining time stays ~60 s of simulation per cell
            // no matter how many replicated runs the scenario declares.
            *duration_ms = duration_ms.min(60_000.0 / s.runs.max(1) as f64);
        }
        if let Workload::Adversarial { attackers, .. } = &mut s.workload {
            // Keep the attacker fraction meaningful at the shrunk scale.
            *attackers = (*attackers).min(s.net.num_nodes / 10).max(1);
        }
        if let Some(sweep) = &mut s.sweep {
            sweep.thresholds_ms.truncate(4);
            sweep.num_nodes = sweep.num_nodes.iter().map(|&n| n.min(120)).collect();
            // Clamping can alias distinct sizes; drop every duplicate (not
            // just adjacent ones) so no two cells are byte-identical.
            let mut seen = std::collections::BTreeSet::new();
            sweep.num_nodes.retain(|&n| seen.insert(n));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload) -> Scenario {
        let mut base = ExperimentConfig::quick(Protocol::Bitcoin);
        base.net.num_nodes = 60;
        base.warmup_ms = 1_000.0;
        base.window_ms = 15_000.0;
        base.runs = 3;
        Scenario::from_experiment("tiny", &base, workload)
    }

    fn every_workload() -> Vec<Workload> {
        vec![
            Workload::TxFlood,
            Workload::Mining {
                block_interval_ms: 800.0,
                duration_ms: 30_000.0,
            },
            Workload::Partition,
            Workload::Eclipse {
                adversary_fraction: 0.1,
                victims: 5,
            },
            Workload::OverheadProbe,
            Workload::ChurnBurst {
                median_session_ms: 30_000.0,
                session_sigma: 1.1,
                mean_offline_ms: 10_000.0,
            },
            Workload::Adversarial {
                strategy: AdversaryStrategy::PingSpoof { spoof_factor: 0.05 },
                attackers: 6,
            },
            Workload::Adversarial {
                strategy: AdversaryStrategy::DelayRelay { delay_ms: 250.0 },
                attackers: 6,
            },
            Workload::Adversarial {
                strategy: AdversaryStrategy::Withhold { drop_fraction: 0.5 },
                attackers: 6,
            },
        ]
    }

    #[test]
    fn workload_serde_round_trips_every_variant() {
        for workload in every_workload() {
            let json = serde_json::to_string(&workload).unwrap();
            let back: Workload = serde_json::from_str(&json).unwrap();
            assert_eq!(back, workload, "{json}");
        }
    }

    #[test]
    fn scenario_serde_round_trips_every_workload() {
        for workload in every_workload() {
            let scenario = tiny(workload).with_sweep(Sweep::over_protocols(paper_protocols()));
            let back = Scenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(back, scenario);
        }
    }

    #[test]
    fn builtins_parse_validate_and_round_trip() {
        for name in Scenario::builtin_names() {
            let scenario = Scenario::builtin(name).unwrap();
            assert_eq!(&scenario.name, name);
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(Scenario::builtin_description(name).is_some());
            let back = Scenario::from_json(&scenario.to_json()).unwrap();
            assert_eq!(back, scenario, "{name} survives a JSON round trip");
            let quick = scenario.quick_scaled();
            quick
                .validate()
                .unwrap_or_else(|e| panic!("{name} quick: {e}"));
            assert!(quick.net.num_nodes <= 120);
        }
        assert!(Scenario::builtin("nope").is_none());
        assert!(Scenario::builtin_description("nope").is_none());
    }

    #[test]
    fn sweep_expansion_covers_the_axes() {
        let base = tiny(Workload::TxFlood);
        assert_eq!(base.cells().len(), 1, "no sweep = one cell");
        assert_eq!(base.cells()[0].label, "bitcoin");

        let protos = base
            .clone()
            .with_sweep(Sweep::over_protocols(paper_protocols()));
        let labels: Vec<String> = protos.cells().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, vec!["bitcoin", "lbc", "bcbpt(dt=25ms)"]);

        let thresholds = base
            .clone()
            .with_sweep(Sweep::over_thresholds_ms([20.0, 40.0]));
        let labels: Vec<String> = thresholds.cells().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, vec!["bcbpt(dt=20ms)", "bcbpt(dt=40ms)"]);

        let sizes = base.with_sweep(Sweep {
            protocols: vec![ProtocolSpec::from(Protocol::Bitcoin)],
            thresholds_ms: vec![],
            num_nodes: vec![40, 60],
            relays: vec![],
        });
        let cells = sizes.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "bitcoin @n=40");
        assert_eq!(cells[0].num_nodes, 40);
        assert_eq!(cells[1].num_nodes, 60);
    }

    #[test]
    fn validation_rejects_inconsistent_scenarios() {
        let mut nameless = tiny(Workload::TxFlood);
        nameless.name = " ".to_string();
        assert!(nameless.validate().is_err());

        let mut no_runs = tiny(Workload::TxFlood);
        no_runs.runs = 0;
        assert!(no_runs.validate().unwrap_err().contains("runs"));

        let conflicting = tiny(Workload::TxFlood).with_sweep(Sweep {
            protocols: paper_protocols(),
            thresholds_ms: vec![25.0],
            num_nodes: vec![],
            relays: vec![],
        });
        assert!(conflicting.validate().unwrap_err().contains("sweep"));

        let mut unknown = tiny(Workload::TxFlood);
        unknown.protocol = ProtocolSpec::new("martian");
        assert!(unknown.validate().unwrap_err().contains("martian"));

        let bad_workload = tiny(Workload::Eclipse {
            adversary_fraction: 1.5,
            victims: 3,
        });
        assert!(bad_workload
            .validate()
            .unwrap_err()
            .contains("adversary_fraction"));

        let mining_needs_no_runs = Scenario {
            runs: 0,
            ..tiny(Workload::Mining {
                block_interval_ms: 500.0,
                duration_ms: 10_000.0,
            })
        };
        mining_needs_no_runs.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_adversarial_parameters() {
        let zero_attackers = tiny(Workload::Adversarial {
            strategy: AdversaryStrategy::PingSpoof { spoof_factor: 0.05 },
            attackers: 0,
        });
        assert!(zero_attackers.validate().unwrap_err().contains("attackers"));

        for (strategy, needle) in [
            (
                AdversaryStrategy::PingSpoof { spoof_factor: 0.0 },
                "spoof_factor",
            ),
            (
                AdversaryStrategy::PingSpoof {
                    spoof_factor: f64::NAN,
                },
                "spoof_factor",
            ),
            (AdversaryStrategy::DelayRelay { delay_ms: -5.0 }, "delay_ms"),
            (
                AdversaryStrategy::Withhold { drop_fraction: 1.5 },
                "drop_fraction",
            ),
        ] {
            let bad = tiny(Workload::Adversarial {
                strategy,
                attackers: 5,
            });
            assert!(
                bad.validate().unwrap_err().contains(needle),
                "{strategy:?} must be rejected via {needle}"
            );
        }

        // Population-relative checks are per cell.
        let too_many = tiny(Workload::Adversarial {
            strategy: AdversaryStrategy::Withhold { drop_fraction: 0.5 },
            attackers: 60,
        });
        assert!(too_many.validate().unwrap_err().contains("fewer than"));
        let too_many_victims = tiny(Workload::Eclipse {
            adversary_fraction: 0.1,
            victims: 61,
        });
        assert!(too_many_victims.validate().unwrap_err().contains("victims"));
        let nan_fraction = tiny(Workload::Eclipse {
            adversary_fraction: f64::NAN,
            victims: 3,
        });
        assert!(nan_fraction
            .validate()
            .unwrap_err()
            .contains("adversary_fraction"));
    }

    #[test]
    fn relay_field_and_relay_sweep_round_trip() {
        // Base-level relay.
        let mut pinned = tiny(Workload::TxFlood);
        pinned.relay = Some(RelaySpec::new("compact"));
        let back = Scenario::from_json(&pinned.to_json()).unwrap();
        assert_eq!(back, pinned);
        assert!(pinned.to_json().contains("\"relay\""));

        // Relay sweep axis.
        let swept = tiny(Workload::Mining {
            block_interval_ms: 800.0,
            duration_ms: 30_000.0,
        })
        .with_sweep(Sweep::over_relays(["full", "rlnc(chunks=8)"]));
        let back = Scenario::from_json(&swept.to_json()).unwrap();
        assert_eq!(back, swept);
        let labels: Vec<String> = swept.cells().into_iter().map(|c| c.label).collect();
        assert_eq!(labels, vec!["bitcoin × full", "bitcoin × rlnc(chunks=8)"]);

        // Legacy JSON predating the relay seam parses to the relay-free
        // form, and that form serializes without a relay key — so every
        // pre-relay scenario file and its digest stay byte-identical.
        let legacy = tiny(Workload::TxFlood);
        let json = legacy.to_json();
        assert!(!json.contains("\"relay\""), "{json}");
        assert!(!json.contains("\"relays\""), "{json}");
        let parsed = Scenario::from_json(&json).unwrap();
        assert_eq!(parsed.relay, None);
        assert_eq!(parsed, legacy);
    }

    #[test]
    fn validation_rejects_bad_relay_configurations() {
        let empty = tiny(Workload::TxFlood).with_sweep(Sweep::over_relays([""]));
        assert!(empty.validate().unwrap_err().contains("must not be empty"));

        let duplicated =
            tiny(Workload::TxFlood).with_sweep(Sweep::over_relays(["compact", "compact"]));
        assert!(duplicated.validate().unwrap_err().contains("appears twice"));

        let mut unknown = tiny(Workload::TxFlood);
        unknown.relay = Some(RelaySpec::new("carrier-pigeon"));
        let err = unknown.validate().unwrap_err();
        assert!(err.contains("unknown relay family"), "{err}");
        assert!(err.contains("carrier-pigeon"), "{err}");

        let bad_params = tiny(Workload::TxFlood).with_sweep(Sweep::over_relays(["rlnc(chunks=0)"]));
        assert!(bad_params.validate().is_err());

        // An adaptive stop rule composes with a relay sweep only on
        // streaming campaign workloads: Mining cells fold no run means.
        let adaptive = StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.1,
            min_runs: 2,
        };
        let mining = tiny(Workload::Mining {
            block_interval_ms: 800.0,
            duration_ms: 30_000.0,
        })
        .with_sweep(Sweep::over_relays(["full", "compact"]))
        .with_stop(adaptive);
        let err = mining.validate().unwrap_err();
        assert!(err.contains("adaptive stop rule"), "{err}");

        tiny(Workload::TxFlood)
            .with_sweep(Sweep::over_relays(["full", "compact"]))
            .with_stop(adaptive)
            .validate()
            .unwrap();
    }

    #[test]
    fn tx_flood_scenario_matches_direct_campaigns() {
        // The declarative path must reproduce the hand-wired path
        // byte-for-byte: same seed, same cells, same campaigns.
        let scenario = tiny(Workload::TxFlood).with_sweep(Sweep::over_protocols(paper_protocols()));
        let outcome = scenario.run().unwrap();
        assert_eq!(outcome.cells.len(), 3);
        let base = ExperimentConfig {
            net: scenario.net.clone(),
            protocol: scenario.protocol.clone(),
            relay: None,
            warmup_ms: scenario.warmup_ms,
            window_ms: scenario.window_ms,
            runs: scenario.runs,
            seed: scenario.seed,
        };
        for (cell, protocol) in outcome.cells.iter().zip(paper_protocols()) {
            let direct = base.with_protocol(protocol).run().unwrap();
            assert_eq!(cell.campaign(), Some(&direct), "{}", cell.label);
        }
        // Shared accessors agree with the campaign-level ones.
        let first = &outcome.cells[0];
        assert_eq!(
            first.delta_summary().unwrap().count(),
            first.campaign().unwrap().delta_summary().count()
        );
        assert!(outcome.delta_summary().count() > 0);
        assert!(outcome.delta_ecdf().is_some());
        let text = outcome.render();
        assert!(
            text.contains("bitcoin") && text.contains("bcbpt(dt=25ms)"),
            "{text}"
        );
    }

    #[test]
    fn mining_scenario_matches_direct_fork_experiment() {
        let mut scenario = tiny(Workload::Mining {
            block_interval_ms: 800.0,
            duration_ms: 30_000.0,
        });
        scenario.net.num_nodes = 80;
        scenario.runs = 0;
        let outcome = scenario.run().unwrap();
        let CellReport::Forks { report } = &outcome.cells[0].report else {
            panic!("mining produces fork reports");
        };
        let cfg = scenario.cell_config(&scenario.cells()[0]);
        let direct =
            crate::forks::fork_experiment(&cfg, scenario.protocol.clone(), 800.0, 30_000.0)
                .unwrap();
        assert_eq!(report, &direct);
        assert!(outcome.figure().is_none(), "no delay samples to plot");
        assert!(outcome.render().contains("stale_rate"));
    }

    #[test]
    fn replicated_mining_scenario_matches_direct_mining_campaign() {
        // `runs >= 1` switches the Mining cell to the replicated
        // campaign: reruns are byte-identical and match the direct call.
        let mut scenario = tiny(Workload::Mining {
            block_interval_ms: 800.0,
            duration_ms: 10_000.0,
        });
        scenario.net.num_nodes = 80;
        scenario.runs = 2;
        let outcome = scenario.run().unwrap();
        let CellReport::Forks { report } = &outcome.cells[0].report else {
            panic!("mining produces fork reports");
        };
        assert!(report.mined > 0, "two replicates must mine blocks");
        let cfg = scenario.cell_config(&scenario.cells()[0]);
        let direct = crate::forks::mining_campaign_in(
            &ProtocolRegistry::builtins(),
            &cfg,
            800.0,
            10_000.0,
            2,
        )
        .unwrap();
        assert_eq!(report, &direct);
        let again = scenario.run().unwrap();
        assert_eq!(outcome, again, "replicated mining must be deterministic");
    }

    #[test]
    fn attack_and_overhead_scenarios_produce_their_tables() {
        let mut partition = tiny(Workload::Partition);
        partition.net.num_nodes = 80;
        partition.runs = 0;
        let outcome = partition
            .clone()
            .with_sweep(Sweep::over_protocols([
                Protocol::Bitcoin,
                Protocol::bcbpt_paper(),
            ]))
            .run()
            .unwrap();
        assert_eq!(outcome.cells.len(), 2);
        assert!(outcome.table().render().contains("cut_edges"));

        let mut eclipse = partition;
        eclipse.workload = Workload::Eclipse {
            adversary_fraction: 0.1,
            victims: 5,
        };
        let outcome = eclipse.run().unwrap();
        assert!(outcome.table().render().contains("mean_bad_share"));

        let overhead = tiny(Workload::OverheadProbe);
        let outcome = overhead.run().unwrap();
        let CellReport::Overhead { report } = &outcome.cells[0].report else {
            panic!("overhead probe produces overhead reports");
        };
        assert!(report.relay_per_node > 0.0);
        assert!(outcome.table().render().contains("probe/node"));
    }

    #[test]
    fn churn_burst_overrides_the_churn_model() {
        let scenario = tiny(Workload::ChurnBurst {
            median_session_ms: 20_000.0,
            session_sigma: 1.2,
            mean_offline_ms: 8_000.0,
        });
        let cfg = scenario.cell_config(&scenario.cells()[0]);
        assert_eq!(cfg.net.churn.median_session_ms, 20_000.0);
        assert!(!cfg.net.churn.is_disabled());
        let outcome = scenario.run().unwrap();
        let campaign = outcome.cells[0].campaign().unwrap();
        assert!(!campaign.runs.is_empty());
        assert!(campaign.mean_coverage() > 0.5, "network must not collapse");
    }

    #[test]
    fn adversarial_scenario_runs_and_matches_direct_reports() {
        let mut scenario = tiny(Workload::Adversarial {
            strategy: AdversaryStrategy::Withhold { drop_fraction: 0.6 },
            attackers: 8,
        })
        .with_sweep(Sweep::over_protocols([
            Protocol::Bitcoin,
            Protocol::bcbpt_paper(),
        ]));
        scenario.runs = 2;
        let outcome = scenario.run().unwrap();
        assert_eq!(outcome.cells.len(), 2);
        for cell in &outcome.cells {
            let CellReport::Adversary { report } = &cell.report else {
                panic!("adversarial workload produces adversary reports");
            };
            assert_eq!(report.attackers, 8);
            assert!(report.withheld_messages > 0);
            assert!(cell.campaign().is_some(), "attacked campaign is exposed");
        }
        // The declarative path reproduces the direct runner byte-for-byte.
        let cfg = scenario.cell_config(&scenario.cells()[0]);
        let direct = crate::adversary::adversarial_campaign(
            &cfg,
            &AdversaryStrategy::Withhold { drop_fraction: 0.6 },
            8,
        )
        .unwrap();
        assert_eq!(
            outcome.cells[0].report,
            CellReport::Adversary { report: direct }
        );
        let text = outcome.render();
        assert!(text.contains("slowdown"), "{text}");
        assert!(text.contains("withhold(p=0.6)"), "{text}");
        assert!(outcome.figure().is_some(), "attacked Δt CDFs are plotted");
    }

    #[test]
    fn failed_cells_surface_errors_instead_of_nan() {
        // A registry whose factory succeeds while the scenario validates
        // and then breaks: the failing cell must be recorded, not abort the
        // sweep or NaN-pad the table.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        let mut registry = ProtocolRegistry::builtins();
        registry.register("flaky", move |_spec| {
            // validate_in builds each cell once (call 0); the run builds
            // again (call 1) and explodes.
            if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                Ok(Box::new(bcbpt_net::RandomPolicy::new()))
            } else {
                Err("flaky exploded at run time".to_string())
            }
        });
        let mut scenario = tiny(Workload::TxFlood);
        scenario.runs = 2;
        scenario.protocol = ProtocolSpec::new("flaky");
        let outcome = scenario.run_in(&registry).unwrap();
        assert_eq!(outcome.cells.len(), 1);
        assert_eq!(outcome.cells[0].error(), Some("flaky exploded at run time"));
        let errors = outcome.cell_errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, "flaky");
        let text = outcome.render();
        assert!(
            text.contains("! cell flaky: flaky exploded at run time"),
            "{text}"
        );
        assert!(!text.contains("NaN"), "no NaN padding: {text}");
        assert!(outcome.table().is_empty(), "failed cells have no row");
        // The failed outcome still serde round-trips.
        let back = ScenarioOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
    }

    #[test]
    fn arrival_free_adversarial_cells_surface_errors_instead_of_nan() {
        // runs = 0 means no measuring runs, hence no arrival samples and a
        // non-finite slowdown: the renderers must report that, not NaN-pad.
        let mut cfg = ExperimentConfig::quick(Protocol::Bitcoin);
        cfg.net.num_nodes = 40;
        cfg.warmup_ms = 500.0;
        cfg.runs = 0;
        let strategy = AdversaryStrategy::DelayRelay { delay_ms: 10.0 };
        let report = crate::adversary::adversarial_campaign(&cfg, &strategy, 4).unwrap();
        assert!(!report.slowdown.is_finite());
        let outcome = ScenarioOutcome::new(
            "arrival-free".to_string(),
            Workload::Adversarial {
                strategy,
                attackers: 4,
            },
            vec![CellOutcome::new(
                "bitcoin".to_string(),
                "bitcoin".to_string(),
                40,
                CellReport::Adversary { report },
            )],
        );
        let errors = outcome.cell_errors();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].1.contains("no arrival samples"));
        assert!(outcome.table().is_empty(), "no NaN row for the dead cell");
        let text = outcome.render();
        assert!(text.contains("no arrival samples"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn sweep_describe_names_the_axes() {
        assert_eq!(Sweep::default().describe(), "single cell");
        assert_eq!(
            Sweep::over_protocols(paper_protocols()).describe(),
            "3 protocols"
        );
        assert_eq!(
            Sweep {
                protocols: vec![],
                thresholds_ms: vec![10.0, 20.0],
                num_nodes: vec![100, 200, 400],
                relays: vec![],
            }
            .describe(),
            "2 thresholds × 3 sizes"
        );
    }

    #[test]
    fn outcome_serde_round_trips() {
        let mut scenario = tiny(Workload::TxFlood);
        scenario.runs = 2;
        let outcome = scenario.run().unwrap();
        let back = ScenarioOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back, outcome);
        // The stats cache is invisible to serialization: priming it must
        // not change the JSON.
        let json_before = outcome.to_json();
        let _ = outcome.delta_summary();
        let _ = outcome.delta_ecdf();
        assert_eq!(outcome.to_json(), json_before);
    }

    #[test]
    fn scenario_with_stop_rule_round_trips_and_validates() {
        let rule = crate::session::StopRule::CiHalfWidth {
            level: 0.9,
            rel_width: 0.2,
            min_runs: 4,
        };
        let scenario = tiny(Workload::TxFlood).with_stop(rule);
        scenario.validate().unwrap();
        let back = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.stop, Some(rule));
        // A pre-stop-field scenario file (no "stop" key) still parses.
        let legacy = tiny(Workload::TxFlood);
        let json = legacy.to_json().replace("  \"stop\": null,\n", "");
        assert!(!json.contains("stop"), "{json}");
        let parsed = Scenario::from_json(&json).unwrap();
        assert_eq!(parsed, legacy);
        assert_eq!(parsed.stop, None);
    }

    #[test]
    fn delta_accessors_are_cached_and_unchanged() {
        // The repeated-work regression: the accessors fold once, return
        // the same values on every call, and agree with a from-scratch
        // re-collect over the raw runs.
        let scenario = tiny(Workload::TxFlood).with_sweep(Sweep::over_protocols(paper_protocols()));
        let outcome = scenario.run().unwrap();
        let manual: Summary = outcome
            .cells
            .iter()
            .filter_map(CellOutcome::campaign)
            .flat_map(CampaignResult::deltas_ms)
            .collect();
        assert_eq!(outcome.delta_summary(), manual);
        assert_eq!(outcome.delta_summary(), manual, "second call identical");
        let pooled_ecdf = outcome.delta_ecdf().unwrap();
        assert_eq!(pooled_ecdf.len() as u64, manual.count());
        assert_eq!(outcome.delta_ecdf().unwrap(), pooled_ecdf);
        for cell in &outcome.cells {
            let summary = cell.delta_summary().unwrap();
            assert_eq!(summary, cell.campaign().unwrap().delta_summary());
            assert_eq!(cell.delta_summary().unwrap(), summary);
            let ecdf = cell.delta_ecdf().unwrap();
            assert_eq!(ecdf, cell.campaign().unwrap().delta_ecdf().unwrap());
        }
        // Cloned and deserialized outcomes recompute identically.
        let back = ScenarioOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(back.delta_summary(), manual);
    }

    #[test]
    fn custom_policy_runs_through_the_scenario_api() {
        let mut registry = ProtocolRegistry::builtins();
        registry.register("uniform", |_spec| {
            Ok(Box::new(bcbpt_net::RandomPolicy::new()))
        });
        let mut scenario = tiny(Workload::TxFlood);
        scenario.protocol = ProtocolSpec::new("uniform");
        assert!(scenario.run().is_err(), "builtins alone reject the spec");
        let outcome = scenario.run_in(&registry).unwrap();
        assert_eq!(outcome.cells[0].protocol, "uniform");
        assert!(!outcome.cells[0].campaign().unwrap().runs.is_empty());
    }

    #[test]
    fn digest_is_invariant_under_serialization_order() {
        // The canonical digest must not depend on how the JSON was laid
        // out on disk: re-indenting and reordering the top-level fields
        // parses to the same scenario, hence the same digest.
        let scenario = tiny(Workload::TxFlood);
        let digest = scenario.digest();
        assert_eq!(
            Scenario::from_json(&scenario.to_json()).unwrap().digest(),
            digest
        );
        let json = serde_json::to_string(&scenario).unwrap();
        assert!(
            json.starts_with("{\"name\""),
            "canonical order starts with name: {json}"
        );
        // Move the leading "name" field to the back of the object.
        let reordered = format!(
            "{{{},\"name\":{:?}}}",
            json[1..json.len() - 1]
                .strip_prefix(&format!("\"name\":{:?},", scenario.name))
                .expect("name is the first field"),
            scenario.name
        );
        let back = Scenario::from_json(&reordered).unwrap();
        assert_eq!(back, scenario);
        assert_eq!(back.digest(), digest);
    }

    #[test]
    fn digest_sees_every_content_change() {
        let base = tiny(Workload::TxFlood);
        let digest = base.digest();
        let mut seed = base.clone();
        seed.seed += 1;
        let mut runs = base.clone();
        runs.runs += 1;
        let mut name = base.clone();
        name.name.push('x');
        let mut proto = base.clone();
        proto.protocol = Protocol::Lbc.into();
        for changed in [seed, runs, name, proto] {
            assert_ne!(changed.digest(), digest);
        }
    }
}
