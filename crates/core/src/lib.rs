//! # bcbpt-core — experiment harness for the BCBPT reproduction
//!
//! Everything needed to regenerate the evaluation of *Proximity Awareness
//! Approach to Enhance Propagation Delay on the Bitcoin Peer-to-Peer
//! Network* (ICDCS 2017):
//!
//! * [`Scenario`]/[`ScenarioOutcome`] — the declarative experiment API:
//!   campaigns as serializable data (workload + protocol spec + sweep),
//!   run by the single `scenario` driver binary.
//! * [`ScenarioSession`]/[`RunEvent`]/[`StopRule`] — the streaming
//!   execution API: typed events reach [`Observer`]s as runs fold, and
//!   adaptive stop rules end a cell as soon as its confidence interval is
//!   tight instead of burning the fixed `runs` budget.
//! * [`ExperimentConfig`]/[`CampaignResult`] — the measuring-node
//!   methodology (Fig. 2, Eq. 5), repeated over many runs (§V.B).
//! * [`fig3`]/[`fig4`] — the paper's two result figures.
//! * [`threshold_sweep`] — extension: fine-grained `Dth` sweep with cluster
//!   structure.
//! * [`validate_delays`] — simulator validation against a reference
//!   propagation-delay shape (§V.A).
//! * [`overhead_table`] — the ping-overhead evaluation the paper defers to
//!   future work (§IV.A).
//! * [`eclipse_table`]/[`partition_table`] — the security evaluations the
//!   paper defers to future work (§V.C).
//! * [`adversarial_campaign`]/[`AdversaryReport`] — behavioural attackers
//!   (ping spoofing, relay delaying, withholding) run in-loop through whole
//!   campaigns, vs a clean baseline.
//! * [`run_shard`]/[`merge_shards`] — cross-host campaign sharding:
//!   disjoint run ranges execute as independent processes against the
//!   same deterministically-replayed warm snapshot, and the serialized
//!   [`PartialOutcome`]s merge back byte-identically to the unsharded
//!   batch run.
//! * [`RunFailure`]/[`Checkpoint`]/[`salvage_merge`]/[`FaultPlan`] — the
//!   failure story: panicking runs fold as structured data, killed shards
//!   resume from digest-sealed checkpoint journals byte-identically, corrupt
//!   parts are quarantined with a machine-readable [`RepairPlan`], and a
//!   deterministic fault-injection harness (`fault-injection` feature)
//!   drives every recovery path in CI.
//! * [`fork_table`] — extension: proof-of-work on top of each relay
//!   protocol, measuring the stale-block rate the paper's motivation ties
//!   to double-spend risk (§I).
//! * [`degree_variance_table`] — the §V.C claim that Bitcoin's delay
//!   variance grows with connection count while BCBPT's stays flat.
//!
//! # Examples
//!
//! Regenerate a CI-scale Fig. 3:
//!
//! ```no_run
//! use bcbpt_cluster::Protocol;
//! use bcbpt_core::{fig3, ExperimentConfig};
//!
//! let base = ExperimentConfig::quick(Protocol::Bitcoin);
//! let bundle = fig3(&base)?;
//! println!("{}", bundle.render());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod adversary;
mod attacks;
pub mod coordinate;
mod degree;
mod experiment;
mod figures;
mod forks;
pub mod obs;
mod overhead;
mod resilience;
mod scenario;
mod session;
mod shard;
mod validation;
mod warm;
pub mod wire;

pub use adversary::{
    adversarial_campaign, adversarial_campaign_in, adversarial_campaign_in_with_threads,
    AdversaryReport, ADVERSARY_COLUMNS,
};
pub use attacks::{
    eclipse_exposure, eclipse_exposure_in, eclipse_table, partition_resilience,
    partition_resilience_in, partition_table, EclipseReport, PartitionReport,
};
/// Re-exported so scenario authors can name attacker strategies without a
/// direct `bcbpt-adversary` dependency.
pub use bcbpt_adversary::AdversaryStrategy;
/// Re-exported so scenario authors can name relay strategies without a
/// direct `bcbpt-net` dependency.
pub use bcbpt_net::RelaySpec;
pub use coordinate::{LocalCoordinator, StopCoordinator};
pub use degree::{degree_variance, degree_variance_table, DegreeVariance};
pub use experiment::{cluster_sizes, CampaignResult, ExperimentConfig, RunResult};
pub use figures::{fig3, fig4, threshold_sweep, FigureBundle};
pub use forks::{
    fork_experiment, fork_experiment_in, fork_table, mining_campaign_in, ForkReport, RelayForkExt,
};
pub use overhead::{overhead_table, OverheadReport};
#[cfg(feature = "fault-injection")]
pub use resilience::fault;
pub use resilience::{FaultPlan, QuarantinedPart, RepairPlan, RunFailure, SalvageReport};
pub use scenario::{
    CellOutcome, CellReport, Scenario, ScenarioCell, ScenarioOutcome, Sweep, Workload,
};
pub use session::{ChannelObserver, Observer, RunEvent, RunStats, ScenarioSession, StopRule};
pub use shard::{
    checkpoint_replay_events, merge_shards, run_shard, run_shard_in, run_shard_with, salvage_merge,
    CheckpointSink, ShardObserver, ShardPlan, ShardRunOptions, ShardSpec,
};
pub use validation::{
    reference_samples, validate_delays, ValidationReport, KS_ACCEPT, REFERENCE_SIGMA,
};
pub use warm::{warm_recipe_digest, WarmCache};
pub use wire::{
    CampaignSlice, CellProgress, CellShard, Checkpoint, CheckpointBody, CoordinatorConfig, Journal,
    PartialCell, PartialOutcome, PrefixEnvelope, PrefixTraffic, Sealed, StopDecision, WarmSnapshot,
    CHECKPOINT_FORMAT_VERSION, COORD_FORMAT_VERSION, SHARD_FORMAT_VERSION,
};
