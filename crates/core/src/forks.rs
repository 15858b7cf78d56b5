//! Fork-rate experiment: closing the paper's motivation loop.
//!
//! §I/§III argue that slow propagation makes ledger replicas inconsistent,
//! which manifests as blockchain forks and enables double spending. The
//! propagation experiments (Fig. 3/4) measure delay; this extension
//! experiment measures the *consequence*: run proof-of-work on top of each
//! relay protocol and compare stale-block rates and ledger consistency.

use crate::experiment::ExperimentConfig;
use bcbpt_cluster::{ProtocolRegistry, ProtocolSpec};
use bcbpt_net::{BandwidthReport, MessageStats, Network};
use bcbpt_sim::RngHub;
use bcbpt_stats::StatTable;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The relay-strategy extension of a [`ForkReport`]: present exactly when
/// the experiment ran with an installed block-relay strategy, pairing the
/// propagation-delay telemetry with the wire-level bandwidth accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelayForkExt {
    /// The relay spec the cell ran (e.g. `"rlnc(chunks=16)"`).
    pub relay: String,
    /// Mean block propagation delay (mint → network-wide adoption), ms.
    pub block_delay_ms: f64,
    /// Wire bytes and waste over the whole experiment.
    pub bandwidth: BandwidthReport,
}

/// Outcome of the fork experiment for one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkReport {
    /// Protocol label.
    pub protocol: String,
    /// Blocks mined during the window.
    pub mined: usize,
    /// Blocks that did not make the main chain.
    pub stale: usize,
    /// `stale / mined`.
    pub stale_rate: f64,
    /// Fraction of online nodes on the global best tip at the end.
    pub tip_agreement: f64,
    /// Relay-strategy telemetry; `None` on the legacy relay-free path,
    /// keeping those reports byte-identical to pre-relay builds.
    pub relay: Option<RelayForkExt>,
}

// Hand-written serde: the `relay` extension is omitted when `None`, so
// relay-free fork reports (all pre-relay outcome files) keep their exact
// serialized form.
impl Serialize for ForkReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("protocol".to_string(), self.protocol.to_value()),
            ("mined".to_string(), self.mined.to_value()),
            ("stale".to_string(), self.stale.to_value()),
            ("stale_rate".to_string(), self.stale_rate.to_value()),
            ("tip_agreement".to_string(), self.tip_agreement.to_value()),
        ];
        if let Some(relay) = &self.relay {
            fields.push(("relay".to_string(), relay.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for ForkReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for ForkReport"))?;
        Ok(ForkReport {
            protocol: Deserialize::from_value(serde::map_get(m, "protocol"))?,
            mined: Deserialize::from_value(serde::map_get(m, "mined"))?,
            stale: Deserialize::from_value(serde::map_get(m, "stale"))?,
            stale_rate: Deserialize::from_value(serde::map_get(m, "stale_rate"))?,
            tip_agreement: Deserialize::from_value(serde::map_get(m, "tip_agreement"))?,
            relay: Deserialize::from_value(serde::map_get(m, "relay"))?,
        })
    }
}

/// One replicated proof-of-work run of a mining campaign: the harvest of
/// replaying the warmed snapshot with run-derived RNG streams, mining for
/// the cell's duration. Serializable because shards ship their run slices
/// inside `CellShard::Mining`; the merge concatenates slices in run-index
/// order and reassembles the exact batch [`ForkReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForkRun {
    /// Which replicate this is; RNG streams derive from
    /// `(campaign seed, run_index)` only.
    pub run_index: usize,
    /// Blocks mined during this run's window.
    pub mined: usize,
    /// Blocks that did not make the main chain.
    pub stale: usize,
    /// Fraction of online nodes on the global best tip at window end.
    pub tip_agreement: f64,
    /// Mean block propagation delay, ms — present exactly when the cell
    /// ran with an installed relay strategy and at least one block
    /// propagated (`None` otherwise, keeping the value serde-safe: the
    /// JSON shim flattens non-finite floats to `null`).
    pub block_delay_ms: Option<f64>,
    /// Wire traffic of this run's mining window (the delta over the
    /// shared warmup).
    pub window_traffic: MessageStats,
}

/// Warms one mining cell: build the network, install the relay strategy
/// if the config names one, and run the warmup. Returns the warmed
/// snapshot and its traffic baseline — the state every replicated run
/// clones, identical on every shard.
pub(crate) fn mining_warm(
    registry: &ProtocolRegistry,
    cfg: &ExperimentConfig,
) -> Result<(Network, MessageStats), String> {
    let mut net = Network::build(cfg.net.clone(), registry.build(&cfg.protocol)?, cfg.seed)?;
    if let Some(spec) = &cfg.relay {
        net.install_relay(bcbpt_relay::registry().build(spec)?);
    }
    net.warmup_ms(cfg.warmup_ms);
    let warmup_traffic = net.stats().clone();
    Ok((net, warmup_traffic))
}

/// Replays one mining run off the warmed snapshot: clone, re-derive RNG
/// streams from `(seed, run_index)`, mine for `duration_ms`, harvest.
pub(crate) fn mine_one(
    base: &Network,
    warmup_traffic: &MessageStats,
    seed: u64,
    block_interval_ms: f64,
    duration_ms: f64,
    run_index: usize,
    has_relay: bool,
) -> ForkRun {
    let mut net = base.clone();
    net.reseed_streams(&RngHub::new(seed).subhub("run", run_index as u64));
    net.enable_mining(block_interval_ms);
    net.run_for_ms(duration_ms);
    let ledger = net.ledger();
    ForkRun {
        run_index,
        mined: ledger.mined_count(),
        stale: ledger.stale_count(),
        tip_agreement: net.tip_agreement(),
        block_delay_ms: if has_relay {
            Some(net.block_delay_mean_ms()).filter(|d| d.is_finite())
        } else {
            None
        },
        window_traffic: net.stats().since(warmup_traffic),
    }
}

/// Executes a contiguous run range of a replicated mining cell off an
/// already-warmed snapshot, in run-index order.
pub(crate) fn mine_range(
    base: &Network,
    warmup_traffic: &MessageStats,
    cfg: &ExperimentConfig,
    block_interval_ms: f64,
    duration_ms: f64,
    range: Range<usize>,
) -> Vec<ForkRun> {
    range
        .map(|run_index| {
            mine_one(
                base,
                warmup_traffic,
                cfg.seed,
                block_interval_ms,
                duration_ms,
                run_index,
                cfg.relay.is_some(),
            )
        })
        .collect()
}

/// Assembles the cell-level [`ForkReport`] from replicated runs. Every
/// field is a pure function of the run slice and the total traffic, so
/// the direct campaign and a cross-shard merge that concatenated the same
/// runs produce byte-identical reports.
pub(crate) fn fork_report_from_runs(
    protocol: String,
    relay: Option<String>,
    runs: &[ForkRun],
    total_traffic: &MessageStats,
) -> ForkReport {
    let mined: usize = runs.iter().map(|r| r.mined).sum();
    let stale: usize = runs.iter().map(|r| r.stale).sum();
    let tip_sum: f64 = runs.iter().map(|r| r.tip_agreement).sum();
    let delays: Vec<f64> = runs.iter().filter_map(|r| r.block_delay_ms).collect();
    let relay = relay.map(|relay| RelayForkExt {
        relay,
        block_delay_ms: if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        },
        bandwidth: total_traffic.bandwidth_report(),
    });
    ForkReport {
        protocol,
        mined,
        stale,
        stale_rate: if mined == 0 {
            0.0
        } else {
            stale as f64 / mined as f64
        },
        tip_agreement: if runs.is_empty() {
            0.0
        } else {
            tip_sum / runs.len() as f64
        },
        relay,
    }
}

/// A replicated mining campaign: warm once, then `runs` independent
/// proof-of-work replicates off the warmed snapshot, each reseeded from
/// `(seed, run_index)` — the mining analogue of a measuring-run campaign,
/// so mining cells shard by run range exactly like `TxFlood` cells. The
/// report aggregates the replicates (summed mined/stale, mean
/// tip-agreement and block delay, total traffic).
///
/// # Errors
///
/// Propagates protocol-resolution and network-construction errors.
///
/// # Panics
///
/// Panics when `block_interval_ms`, `duration_ms` or `runs` is not
/// positive.
pub fn mining_campaign_in(
    registry: &ProtocolRegistry,
    base: &ExperimentConfig,
    block_interval_ms: f64,
    duration_ms: f64,
    runs: usize,
) -> Result<ForkReport, String> {
    assert!(block_interval_ms > 0.0, "block interval must be positive");
    assert!(duration_ms > 0.0, "duration must be positive");
    assert!(runs > 0, "a mining campaign needs at least one run");
    let (net, warmup_traffic) = mining_warm(registry, base)?;
    let fork_runs = mine_range(
        &net,
        &warmup_traffic,
        base,
        block_interval_ms,
        duration_ms,
        0..runs,
    );
    let mut total = warmup_traffic;
    for run in &fork_runs {
        total.merge(&run.window_traffic);
    }
    crate::obs::net_bytes_total().add(total.total_bytes());
    crate::obs::net_redundant_bytes_total().add(total.total_redundant_bytes());
    Ok(fork_report_from_runs(
        base.protocol.to_string(),
        base.relay.as_ref().map(|spec| spec.to_string()),
        &fork_runs,
        &total,
    ))
}

/// Runs proof-of-work over one protocol's topology.
///
/// Blocks arrive as a Poisson process with mean `block_interval_ms`; a
/// uniformly random online node wins each and mines on *its* current tip,
/// so any propagation lag directly converts into forks.
///
/// # Errors
///
/// Propagates network-construction errors.
///
/// # Panics
///
/// Panics when `block_interval_ms` or `duration_ms` is not positive.
pub fn fork_experiment(
    base: &ExperimentConfig,
    protocol: impl Into<ProtocolSpec>,
    block_interval_ms: f64,
    duration_ms: f64,
) -> Result<ForkReport, String> {
    fork_experiment_in(
        &ProtocolRegistry::builtins(),
        base,
        protocol,
        block_interval_ms,
        duration_ms,
    )
}

/// [`fork_experiment`] with the protocol resolved against `registry`, so
/// custom registered policies can be measured too.
///
/// # Errors
///
/// Propagates protocol-resolution and network-construction errors.
///
/// # Panics
///
/// Panics when `block_interval_ms` or `duration_ms` is not positive.
pub fn fork_experiment_in(
    registry: &ProtocolRegistry,
    base: &ExperimentConfig,
    protocol: impl Into<ProtocolSpec>,
    block_interval_ms: f64,
    duration_ms: f64,
) -> Result<ForkReport, String> {
    assert!(block_interval_ms > 0.0, "block interval must be positive");
    assert!(duration_ms > 0.0, "duration must be positive");
    let cfg = base.with_protocol(protocol);
    let mut net = Network::build(cfg.net.clone(), registry.build(&cfg.protocol)?, cfg.seed)?;
    if let Some(spec) = &cfg.relay {
        net.install_relay(bcbpt_relay::registry().build(spec)?);
    }
    net.warmup_ms(cfg.warmup_ms);
    net.enable_mining(block_interval_ms);
    net.run_for_ms(duration_ms);
    let ledger = net.ledger();
    crate::obs::net_bytes_total().add(net.stats().total_bytes());
    crate::obs::net_redundant_bytes_total().add(net.stats().total_redundant_bytes());
    let relay = cfg.relay.as_ref().map(|spec| RelayForkExt {
        relay: spec.to_string(),
        block_delay_ms: net.block_delay_mean_ms(),
        bandwidth: net.stats().bandwidth_report(),
    });
    Ok(ForkReport {
        protocol: cfg.protocol.to_string(),
        mined: ledger.mined_count(),
        stale: ledger.stale_count(),
        stale_rate: ledger.stale_rate(),
        tip_agreement: net.tip_agreement(),
        relay,
    })
}

/// Fork rates across protocols as a table.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn fork_table<P: Clone + Into<ProtocolSpec>>(
    base: &ExperimentConfig,
    protocols: &[P],
    block_interval_ms: f64,
    duration_ms: f64,
) -> Result<StatTable, String> {
    let mut table = StatTable::new(
        format!("Fork rate under proof-of-work (blocks every {block_interval_ms} ms on average)"),
        &["mined", "stale", "stale_rate", "tip_agreement"],
    );
    for p in protocols {
        let r = fork_experiment(base, p.clone(), block_interval_ms, duration_ms)?;
        table.push_row(
            r.protocol,
            vec![
                r.mined as f64,
                r.stale as f64,
                r.stale_rate,
                r.tip_agreement,
            ],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_cluster::Protocol;

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(Protocol::Bitcoin);
        cfg.net.num_nodes = 100;
        cfg.warmup_ms = 2_000.0;
        cfg.runs = 0;
        cfg
    }

    #[test]
    fn fork_experiment_reports_consistent_numbers() {
        let r = fork_experiment(&tiny(), Protocol::Bitcoin, 2_000.0, 60_000.0).unwrap();
        assert!(r.mined > 5, "mined {}", r.mined);
        assert!(r.stale <= r.mined);
        assert!((0.0..=1.0).contains(&r.stale_rate));
        assert!((0.0..=1.0).contains(&r.tip_agreement));
    }

    #[test]
    fn aggressive_blocks_fork_under_any_protocol() {
        // Blocks every 200 ms against ~300-600 ms propagation must fork.
        let r = fork_experiment(&tiny(), Protocol::Bitcoin, 200.0, 30_000.0).unwrap();
        assert!(r.stale > 0, "expected forks, got none out of {}", r.mined);
    }

    #[test]
    fn table_lists_all_protocols() {
        let table = fork_table(
            &tiny(),
            &[Protocol::Bitcoin, Protocol::bcbpt_paper()],
            1_500.0,
            30_000.0,
        )
        .unwrap();
        assert_eq!(table.len(), 2);
        let text = table.render();
        assert!(text.contains("bitcoin"));
        assert!(text.contains("bcbpt"));
    }

    #[test]
    #[should_panic(expected = "block interval")]
    fn interval_validated() {
        let _ = fork_experiment(&tiny(), Protocol::Bitcoin, 0.0, 1_000.0);
    }

    #[test]
    fn relay_extension_fills_and_round_trips() {
        // Relay-free reports omit the extension and serialize without a
        // `relay` key — the pre-relay wire format.
        let bare = fork_experiment(&tiny(), Protocol::Bitcoin, 2_000.0, 30_000.0).unwrap();
        assert!(bare.relay.is_none());
        let json = serde_json::to_string(&bare).unwrap();
        assert!(!json.contains("\"relay\""), "{json}");
        let back: ForkReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bare);

        // With a relay installed the extension carries live telemetry.
        let cfg = tiny().with_relay("compact");
        let report = fork_experiment(&cfg, Protocol::Bitcoin, 2_000.0, 30_000.0).unwrap();
        let ext = report.relay.as_ref().expect("relay extension present");
        assert_eq!(ext.relay, "compact");
        assert!(ext.block_delay_ms > 0.0);
        assert!(ext.bandwidth.bytes_on_wire > 0);
        assert!(ext.bandwidth.waste_ratio.is_finite());
        let back: ForkReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
