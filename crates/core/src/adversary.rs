//! Adversarial campaigns: behavioural attackers run through the paper's
//! measuring-node methodology.
//!
//! The structural analyses in [`crate::attacks`] ask what a frozen topology
//! *exposes*; this module asks what an in-loop attacker *achieves*. A
//! [`bcbpt_adversary::AdversaryForce`] is installed before warmup — so
//! ping spoofers can game cluster formation — and a full campaign runs
//! against it. The [`AdversaryReport`] pairs that campaign with a clean
//! baseline of the same cell (same seed, no adversary) and answers the
//! paper's §V.C question quantitatively: how far does proximity forgery
//! infiltrate each protocol's neighbourhoods, and at what propagation
//! cost.

use crate::experiment::{CampaignResult, ExperimentConfig};
use bcbpt_adversary::{AdversaryForce, AdversaryStrategy};
use bcbpt_cluster::ProtocolRegistry;
use bcbpt_net::{Network, NodeId};
use serde::{Deserialize, Serialize};

/// Column headers of the adversarial summary table, shared with the
/// scenario renderer.
pub const ADVERSARY_COLUMNS: [&str; 9] = [
    "attackers",
    "bad_peer_share",
    "infiltration",
    "infil_gain",
    "clean_ms",
    "adv_ms",
    "slowdown",
    "withheld_ratio",
    "coverage",
];

/// The outcome of one adversarial cell: an attacked campaign next to its
/// clean baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryReport {
    /// Protocol label.
    pub protocol: String,
    /// Strategy label (e.g. `"pingspoof(x0.05)"`).
    pub strategy: String,
    /// Number of attacker-controlled nodes.
    pub attackers: usize,
    /// Mean share of an honest node's connections held by attackers after
    /// warmup — the cross-protocol infiltration metric.
    pub attacker_peer_share: f64,
    /// [`attacker_peer_share`](Self::attacker_peer_share) of the clean
    /// baseline (the same nodes, not attacking): what that share would be
    /// by construction alone.
    pub clean_attacker_peer_share: f64,
    /// Fraction of honest clustered nodes sharing a cluster with at least
    /// one attacker after warmup (0 for non-clustering protocols — there
    /// is no cluster to infiltrate).
    pub cluster_infiltration: f64,
    /// [`cluster_infiltration`](Self::cluster_infiltration) of the clean
    /// baseline. Randomly placed attackers land inside clusters even
    /// without attacking (LBC's country clusters especially), so the
    /// attack's real effect is the *gain* over this.
    pub clean_cluster_infiltration: f64,
    /// Clusters formed under attack (0 for non-clustering protocols).
    pub clusters_under_attack: usize,
    /// Mean network-wide first-arrival delay of the clean baseline, ms.
    pub clean_mean_arrival_ms: f64,
    /// Mean network-wide first-arrival delay under attack, ms.
    pub adversarial_mean_arrival_ms: f64,
    /// Propagation slowdown: attacked over clean mean arrival delay
    /// (1.0 = no effect).
    pub slowdown: f64,
    /// Mean per-run coverage of the clean baseline.
    pub clean_coverage: f64,
    /// Mean per-run coverage under attack.
    pub adversarial_coverage: f64,
    /// Fraction of the baseline's deliveries lost to the attack:
    /// `1 − coverage_attacked / coverage_clean`, floored at 0.
    pub withheld_delivery_ratio: f64,
    /// Relay messages the attackers blackholed over the whole campaign.
    pub withheld_messages: u64,
    /// The full attacked campaign. The clean baseline is the same cell and
    /// seed with an *inert* adversary marking the same nodes (so both
    /// campaigns draw measuring origins from the identical honest pool);
    /// with zero attackers both collapse to plain `TxFlood`.
    pub campaign: CampaignResult,
}

impl AdversaryReport {
    /// How much cluster infiltration the attack *caused*: attacked minus
    /// clean-baseline infiltration (0 when attacking changed nothing).
    pub fn infiltration_gain(&self) -> f64 {
        self.cluster_infiltration - self.clean_cluster_infiltration
    }

    /// The row the adversarial summary table prints, in
    /// [`ADVERSARY_COLUMNS`] order.
    pub fn row(&self) -> Vec<f64> {
        vec![
            self.attackers as f64,
            self.attacker_peer_share,
            self.cluster_infiltration,
            self.infiltration_gain(),
            self.clean_mean_arrival_ms,
            self.adversarial_mean_arrival_ms,
            self.slowdown,
            self.withheld_delivery_ratio,
            self.adversarial_coverage,
        ]
    }
}

/// Infiltration metrics measured on the warmed-up, attacked snapshot.
/// Serializable (and carried inside a shard's `PairedSlice`) because the
/// measurement happens at warm time: every shard of a paired adversarial
/// cell warms the identical network and must report the identical
/// infiltration, which the merge cross-checks field-for-field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmInfiltration {
    /// Mean fraction of an honest online node's peers that are attackers.
    pub attacker_peer_share: f64,
    /// Fraction of clustered honest nodes sharing a cluster with an
    /// attacker.
    pub cluster_infiltration: f64,
    /// Number of distinct clusters observed on the warmed snapshot.
    pub clusters: usize,
}

impl WarmInfiltration {
    /// Measures the infiltration of the installed adversary's node set in
    /// the warmed-up topology of `net`. The clean baseline carries an
    /// inert force with the identical mask, so both snapshots are measured
    /// against the same node set through [`Network::is_attacker`].
    pub(crate) fn measure(net: &Network) -> Self {
        let is_attacker = |node: NodeId| net.is_attacker(node);
        let n = net.num_nodes() as u32;
        let mut attacker_clusters = std::collections::BTreeSet::new();
        let mut all_clusters = std::collections::BTreeSet::new();
        for i in 0..n {
            let node = NodeId::from_index(i);
            if let Some(c) = net.cluster_of(node) {
                all_clusters.insert(c);
                if is_attacker(node) {
                    attacker_clusters.insert(c);
                }
            }
        }
        let mut share_sum = 0.0;
        let mut share_n = 0usize;
        let mut infiltrated = 0usize;
        let mut clustered = 0usize;
        for i in 0..n {
            let node = NodeId::from_index(i);
            if is_attacker(node) || !net.is_online(node) {
                continue;
            }
            let peers = net.links().peers(node);
            if !peers.is_empty() {
                let bad = peers.iter().filter(|&&p| is_attacker(p)).count();
                share_sum += bad as f64 / peers.len() as f64;
                share_n += 1;
            }
            if let Some(c) = net.cluster_of(node) {
                clustered += 1;
                if attacker_clusters.contains(&c) {
                    infiltrated += 1;
                }
            }
        }
        WarmInfiltration {
            attacker_peer_share: if share_n == 0 {
                0.0
            } else {
                share_sum / share_n as f64
            },
            cluster_infiltration: if clustered == 0 {
                0.0
            } else {
                infiltrated as f64 / clustered as f64
            },
            clusters: all_clusters.len(),
        }
    }
}

/// Mean network-wide first-arrival delay of a campaign (NaN when no run
/// recorded arrivals).
fn mean_arrival_ms(campaign: &CampaignResult) -> f64 {
    match campaign.arrival_ecdf() {
        Ok(e) => e.mean(),
        Err(_) => f64::NAN,
    }
}

/// [`adversarial_campaign_in`] against the built-in protocol set.
///
/// # Errors
///
/// Propagates strategy-validation and campaign errors.
pub fn adversarial_campaign(
    base: &ExperimentConfig,
    strategy: &AdversaryStrategy,
    attackers: usize,
) -> Result<AdversaryReport, String> {
    adversarial_campaign_in(&ProtocolRegistry::builtins(), base, strategy, attackers)
}

/// Runs one adversarial cell: a clean baseline campaign (an inert
/// adversary marks the same nodes so origin selection stays paired), then
/// the same cell with `attackers` nodes executing `strategy` from before
/// warmup, both on the parallel runner. `attackers` may be zero — the
/// attacked campaign is then byte-identical to the baseline and to plain
/// `TxFlood` (the determinism contract the tests pin).
///
/// # Errors
///
/// Rejects invalid strategy parameters or `attackers >= num_nodes`, and
/// propagates protocol-resolution / network-construction errors.
pub fn adversarial_campaign_in(
    registry: &ProtocolRegistry,
    base: &ExperimentConfig,
    strategy: &AdversaryStrategy,
    attackers: usize,
) -> Result<AdversaryReport, String> {
    adversarial_campaign_in_with_threads(
        registry,
        base,
        strategy,
        attackers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// [`adversarial_campaign_in`] with an explicit worker-thread count —
/// output is byte-identical for every value.
///
/// # Errors
///
/// Same conditions as [`adversarial_campaign_in`].
pub fn adversarial_campaign_in_with_threads(
    registry: &ProtocolRegistry,
    base: &ExperimentConfig,
    strategy: &AdversaryStrategy,
    attackers: usize,
    threads: usize,
) -> Result<AdversaryReport, String> {
    let force = AdversaryForce::new(*strategy, base.net.num_nodes, attackers)?;
    // Clean baseline: an inert force marks the same nodes without acting.
    // This keeps the comparison paired: both campaigns exclude the mask
    // from origin selection, and both snapshots report where the
    // (would-be) attackers landed, so the report can separate
    // attack-caused infiltration from placement luck.
    let inert = AdversaryForce::inert(base.net.num_nodes, attackers)?;
    let mut clean_infiltration = WarmInfiltration::default();
    let mut inspect_clean = |net: &Network| clean_infiltration = WarmInfiltration::measure(net);
    let clean = base.run_campaign(
        registry,
        threads,
        Some(Box::new(inert)),
        None,
        Some(&mut inspect_clean),
        None,
    )?;
    let mut infiltration = WarmInfiltration::default();
    let mut inspect = |net: &Network| infiltration = WarmInfiltration::measure(net);
    let attacked = base.run_campaign(
        registry,
        threads,
        Some(Box::new(force)),
        None,
        Some(&mut inspect),
        None,
    )?;

    Ok(assemble_report(
        base.protocol.to_string(),
        strategy.label(),
        attackers,
        infiltration,
        clean_infiltration,
        &clean,
        attacked,
    ))
}

/// Assembles an [`AdversaryReport`] from the two campaigns and the two
/// warm-time infiltration measurements. Every field is a pure function of
/// the inputs, so the direct campaign and a cross-shard merge that reassembled
/// the same campaigns from run-range slices produce byte-identical
/// reports.
pub(crate) fn assemble_report(
    protocol: String,
    strategy: String,
    attackers: usize,
    infiltration: WarmInfiltration,
    clean_infiltration: WarmInfiltration,
    clean: &CampaignResult,
    attacked: CampaignResult,
) -> AdversaryReport {
    let clean_mean_arrival_ms = mean_arrival_ms(clean);
    let adversarial_mean_arrival_ms = mean_arrival_ms(&attacked);
    let clean_coverage = clean.mean_coverage();
    let adversarial_coverage = attacked.mean_coverage();
    AdversaryReport {
        protocol,
        strategy,
        attackers,
        attacker_peer_share: infiltration.attacker_peer_share,
        clean_attacker_peer_share: clean_infiltration.attacker_peer_share,
        cluster_infiltration: infiltration.cluster_infiltration,
        clean_cluster_infiltration: clean_infiltration.cluster_infiltration,
        clusters_under_attack: infiltration.clusters,
        clean_mean_arrival_ms,
        adversarial_mean_arrival_ms,
        slowdown: adversarial_mean_arrival_ms / clean_mean_arrival_ms,
        clean_coverage,
        adversarial_coverage,
        withheld_delivery_ratio: if clean_coverage > 0.0 {
            (1.0 - adversarial_coverage / clean_coverage).max(0.0)
        } else {
            0.0
        },
        withheld_messages: attacked.traffic.withheld_messages(),
        campaign: attacked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_cluster::Protocol;

    fn tiny(protocol: Protocol) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(protocol);
        cfg.net.num_nodes = 60;
        cfg.warmup_ms = 1_000.0;
        cfg.window_ms = 15_000.0;
        cfg.runs = 3;
        cfg
    }

    #[test]
    fn zero_attacker_adversarial_run_is_byte_identical_to_tx_flood() {
        // The determinism contract of the whole subsystem: installing the
        // adversary machinery with nobody to control must not change one
        // byte of the campaign — serially and under the thread pool.
        let registry = ProtocolRegistry::builtins();
        for protocol in [Protocol::Bitcoin, Protocol::bcbpt_paper()] {
            let cfg = tiny(protocol);
            let strategy = AdversaryStrategy::PingSpoof { spoof_factor: 0.05 };
            for threads in [1usize, 3, 8] {
                let clean = cfg.run_with_threads(threads).unwrap();
                let report =
                    adversarial_campaign_in_with_threads(&registry, &cfg, &strategy, 0, threads)
                        .unwrap();
                assert_eq!(
                    report.campaign, clean,
                    "zero-attacker adversarial campaign diverged at {threads} threads"
                );
                assert_eq!(report.slowdown, 1.0);
                assert_eq!(report.withheld_messages, 0);
                assert_eq!(report.withheld_delivery_ratio, 0.0);
                assert_eq!(report.attacker_peer_share, 0.0);
            }
        }
    }

    #[test]
    fn adversarial_campaigns_are_deterministic_across_thread_counts() {
        let registry = ProtocolRegistry::builtins();
        let cfg = tiny(Protocol::bcbpt_paper());
        let strategy = AdversaryStrategy::Withhold { drop_fraction: 0.4 };
        let serial =
            adversarial_campaign_in_with_threads(&registry, &cfg, &strategy, 6, 1).unwrap();
        for threads in [2usize, 5] {
            let pooled =
                adversarial_campaign_in_with_threads(&registry, &cfg, &strategy, 6, threads)
                    .unwrap();
            assert_eq!(pooled, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn withhold_blackholes_deliveries() {
        let cfg = tiny(Protocol::Bitcoin);
        let strategy = AdversaryStrategy::Withhold { drop_fraction: 0.8 };
        let report = adversarial_campaign(&cfg, &strategy, 12).unwrap();
        assert!(report.withheld_messages > 0, "attackers must drop relays");
        assert!(
            report.adversarial_coverage < report.clean_coverage,
            "coverage {} must fall below clean {}",
            report.adversarial_coverage,
            report.clean_coverage
        );
        assert!(report.withheld_delivery_ratio > 0.0);
        assert_eq!(report.strategy, "withhold(p=0.8)");
    }

    #[test]
    fn pingspoof_infiltrates_bcbpt_not_bitcoin() {
        let strategy = AdversaryStrategy::PingSpoof { spoof_factor: 0.02 };
        let bitcoin = adversarial_campaign(&tiny(Protocol::Bitcoin), &strategy, 6).unwrap();
        let bcbpt = adversarial_campaign(&tiny(Protocol::bcbpt_paper()), &strategy, 6).unwrap();
        assert_eq!(
            bitcoin.cluster_infiltration, 0.0,
            "bitcoin has no clusters to infiltrate"
        );
        assert!(
            bcbpt.cluster_infiltration > 0.5,
            "spoofers must reach most bcbpt clusters, got {}",
            bcbpt.cluster_infiltration
        );
        assert_eq!(bitcoin.infiltration_gain(), 0.0);
        assert!(
            bcbpt.infiltration_gain() > 0.2,
            "the spoof must cause infiltration beyond placement luck, got {} over {}",
            bcbpt.cluster_infiltration,
            bcbpt.clean_cluster_infiltration
        );
        assert!(bcbpt.clusters_under_attack > 0);
        assert_eq!(bitcoin.clusters_under_attack, 0);
    }

    #[test]
    fn delayrelay_slows_propagation() {
        let cfg = tiny(Protocol::Bitcoin);
        let strategy = AdversaryStrategy::DelayRelay { delay_ms: 400.0 };
        let report = adversarial_campaign(&cfg, &strategy, 12).unwrap();
        assert!(
            report.slowdown > 1.05,
            "12/60 delaying attackers must slow propagation, got {}",
            report.slowdown
        );
        assert_eq!(report.withheld_messages, 0, "delaying is not dropping");
    }

    #[test]
    fn report_rejects_degenerate_setups() {
        let cfg = tiny(Protocol::Bitcoin);
        let err = adversarial_campaign(
            &cfg,
            &AdversaryStrategy::PingSpoof { spoof_factor: -1.0 },
            3,
        )
        .unwrap_err();
        assert!(err.contains("spoof_factor"), "{err}");
        let err = adversarial_campaign(
            &cfg,
            &AdversaryStrategy::PingSpoof { spoof_factor: 0.1 },
            60,
        )
        .unwrap_err();
        assert!(err.contains("attackers"), "{err}");
    }

    #[test]
    fn report_row_matches_columns() {
        let cfg = tiny(Protocol::Bitcoin);
        let report =
            adversarial_campaign(&cfg, &AdversaryStrategy::DelayRelay { delay_ms: 50.0 }, 3)
                .unwrap();
        assert_eq!(report.row().len(), ADVERSARY_COLUMNS.len());
        let json = serde_json::to_string(&report).unwrap();
        let back: AdversaryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
