//! BCBPT — Bitcoin Clustering Based Ping Time (the paper's contribution).
//!
//! Neighbour selection by *measured ping latency* (paper §IV):
//!
//! 1. **Joining** (§IV.B): DNS seeds recommend geographically ranked
//!    candidates; the node measures ping distance to each, sends `JOIN` to
//!    the closest node `K`, receives `K`'s cluster member list
//!    (`CLUSTERLIST`), and connects to cluster members whose measured
//!    distance is below the threshold `Dth` (Eq. 1, default 25 ms).
//! 2. **Long links**: "each node maintains a few long distance links to the
//!    outside cluster" so information crosses cluster boundaries.
//! 3. **Maintenance** (§IV.B): every discovery tick (100 ms in §V.B) the
//!    node evaluates newly discovered peers by ping distance, adopting and
//!    connecting close ones, topping up long links otherwise.
//!
//! Distance measurements go through the [`RttEstimator`], which re-pings
//! "repeatedly ... over the time" (§IV.A) and pays accounted PING/PONG
//! traffic — the overhead this reproduction's extension experiment
//! quantifies.

use crate::registry::ClusterRegistry;
use crate::rtt::RttEstimator;
use bcbpt_net::{
    geo_ranked_candidates, Message, MessageKind, NeighborPolicy, NetView, NodeId, TopologyActions,
};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// BCBPT tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BcbptConfig {
    /// The clustering latency threshold `Dth` in milliseconds (Eq. 1).
    /// Paper default: 25 ms; Fig. 4 sweeps 30/50/100 ms.
    pub threshold_ms: f64,
    /// Outbound slots reserved for links *outside* the cluster ("a few long
    /// distance links", §IV).
    pub long_links: usize,
    /// DNS candidates requested when joining.
    pub candidate_pool: usize,
    /// Cluster members evaluated per join/maintenance round (bounds the
    /// ping cost per tick).
    pub eval_budget: usize,
}

impl BcbptConfig {
    /// The paper's experiment configuration: `Dth = 25 ms` (§V.B).
    pub fn paper() -> Self {
        BcbptConfig {
            threshold_ms: 25.0,
            long_links: 2,
            candidate_pool: 16,
            eval_budget: 24,
        }
    }

    /// Same shape with a different threshold (Fig. 4 sweeps).
    pub fn with_threshold_ms(threshold_ms: f64) -> Self {
        BcbptConfig {
            threshold_ms,
            ..Self::paper()
        }
    }
}

impl Default for BcbptConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The BCBPT neighbour-selection policy.
///
/// # Examples
///
/// ```
/// use bcbpt_cluster::{BcbptConfig, BcbptPolicy};
/// use bcbpt_net::{NetConfig, Network};
///
/// let mut config = NetConfig::test_scale();
/// config.num_nodes = 40;
/// let policy = BcbptPolicy::new(BcbptConfig::paper());
/// let mut net = Network::build(config, Box::new(policy), 7)?;
/// net.warmup_ms(2_000.0);
/// // Clusters formed: every node reports a cluster id.
/// let c = net.cluster_of(bcbpt_net::NodeId::from_index(0));
/// assert!(c.is_some());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct BcbptPolicy {
    config: BcbptConfig,
    registry: ClusterRegistry,
    estimator: RttEstimator,
}

impl BcbptPolicy {
    /// Creates the policy.
    pub fn new(config: BcbptConfig) -> Self {
        assert!(
            config.threshold_ms > 0.0 && config.threshold_ms.is_finite(),
            "threshold must be positive"
        );
        BcbptPolicy {
            config,
            registry: ClusterRegistry::new(0),
            estimator: RttEstimator::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BcbptConfig {
        &self.config
    }

    /// The cluster registry (sizes, membership) for experiment inspection.
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// The RTT estimator — the attack surface a ping-spoofing adversary
    /// targets. Experiments inspect its cached beliefs
    /// ([`RttEstimator::cached_ms`]) against ground-truth RTT to quantify
    /// how far proximity forgery poisoned neighbour selection.
    pub fn estimator(&self) -> &RttEstimator {
        &self.estimator
    }

    fn ensure_sized(&mut self, n: usize) {
        if self.registry.num_nodes() < n {
            let mut grown = ClusterRegistry::new(n);
            for c in 0..self.registry.num_clusters() {
                let nc = grown.create_cluster();
                for &m in self.registry.members(c) {
                    grown.assign(m, nc);
                }
            }
            self.registry = grown;
        }
    }

    /// Classifies `node`'s current peers into (intra-cluster, long) counts.
    fn link_budget(&self, node: NodeId, view: &NetView<'_>) -> (usize, usize) {
        let mut intra = 0;
        let mut long = 0;
        for p in view.peers(node) {
            if self.registry.same_cluster(node, p) {
                intra += 1;
            } else {
                long += 1;
            }
        }
        (intra, long)
    }

    fn intra_target(&self, view: &NetView<'_>) -> usize {
        view.config()
            .target_outbound
            .saturating_sub(self.config.long_links)
            .max(1)
    }

    /// The join procedure (§IV.B): rank candidates by measured distance,
    /// JOIN the closest, connect within its cluster, keep long links.
    fn join(&mut self, node: NodeId, view: &mut NetView<'_>) -> Vec<NodeId> {
        let candidates = geo_ranked_candidates(view, node, self.config.candidate_pool);
        if candidates.is_empty() {
            return Vec::new();
        }
        // Proximity ordering by *measured* ping distance (Eq. 1).
        let mut ranked: Vec<(f64, NodeId)> = candidates
            .iter()
            .map(|&c| (self.estimator.estimate_ms(node, c, view), c))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite rtt"));

        let (closest_d, closest) = ranked[0];
        // Eq. 1 decides membership: the node only joins the closest node's
        // cluster when the measured distance clears the threshold;
        // otherwise it is "far from everything" and starts its own cluster,
        // relying on long links for connectivity.
        let cluster = if closest_d < self.config.threshold_ms {
            // JOIN -> CLUSTERLIST exchange with the closest node (§IV.B).
            view.count_control(&Message::Join);
            let c = match self.registry.cluster_of(closest) {
                Some(c) => c,
                None => {
                    let c = self.registry.create_cluster();
                    self.registry.assign(closest, c);
                    c
                }
            };
            let listed = self.registry.members(c).iter().filter(|&&m| m != node);
            view.count_address_list(MessageKind::ClusterList, listed.count());
            c
        } else {
            self.registry.create_cluster()
        };
        self.registry.assign(node, cluster);
        let members: Vec<NodeId> = self
            .registry
            .members(cluster)
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();

        // Connect to close cluster members, nearest first.
        let mut member_ranked: Vec<(f64, NodeId)> = members
            .iter()
            .take(self.config.eval_budget)
            .map(|&m| (self.estimator.estimate_ms(node, m, view), m))
            .collect();
        member_ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite rtt"));

        let intra_budget = self.intra_target(view);
        let mut targets: Vec<NodeId> = member_ranked
            .iter()
            .filter(|(d, m)| *d < self.config.threshold_ms && view.is_online(*m))
            .map(|&(_, m)| m)
            .take(intra_budget)
            .collect();

        // Long-distance links to the outside of the cluster.
        let mut outside: Vec<NodeId> = ranked
            .iter()
            .map(|&(_, c)| c)
            .filter(|&c| !self.registry.same_cluster(node, c) && !targets.contains(&c))
            .collect();
        outside.shuffle(view.rng());
        targets.extend(outside.iter().copied().take(self.config.long_links));

        // Never strand the node: fill remaining slots with the closest
        // candidates regardless of threshold.
        let want = view.config().target_outbound;
        if targets.len() < want {
            for &(_, c) in &ranked {
                if targets.len() >= want {
                    break;
                }
                if !targets.contains(&c) {
                    targets.push(c);
                }
            }
        }
        targets.truncate(want);
        targets
    }
}

impl NeighborPolicy for BcbptPolicy {
    fn name(&self) -> &'static str {
        "bcbpt"
    }

    fn clone_box(&self) -> Box<dyn NeighborPolicy> {
        Box::new(self.clone())
    }

    fn bootstrap(&mut self, node: NodeId, view: &mut NetView<'_>) -> Vec<NodeId> {
        self.ensure_sized(view.num_nodes());
        self.join(node, view)
    }

    fn on_discovery(
        &mut self,
        node: NodeId,
        discovered: &[NodeId],
        view: &mut NetView<'_>,
    ) -> TopologyActions {
        self.ensure_sized(view.num_nodes());
        if self.registry.cluster_of(node).is_none() {
            // Churn edge: we lost membership; rejoin through the full
            // procedure.
            return TopologyActions::connect_to(self.join(node, view));
        }
        let free = view.free_outbound_slots(node);
        if free == 0 || discovered.is_empty() {
            return TopologyActions::none();
        }
        let (intra_now, long_now) = self.link_budget(node, view);
        let intra_budget = self.intra_target(view).saturating_sub(intra_now);
        let long_budget = self.config.long_links.saturating_sub(long_now);

        let fresh: Vec<NodeId> = discovered
            .iter()
            .copied()
            .filter(|&c| c != node && view.is_online(c) && !view.connected(node, c))
            .take(self.config.eval_budget)
            .collect();
        let mut ranked: Vec<(f64, NodeId)> = fresh
            .into_iter()
            .map(|c| (self.estimator.estimate_ms(node, c, view), c))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite rtt"));

        let mut connect = Vec::new();
        let mut intra_used = 0usize;
        let mut long_used = 0usize;
        for &(d, c) in &ranked {
            if connect.len() >= free {
                break;
            }
            let my_cluster = self.registry.cluster_of(node).expect("joined above");
            if d < self.config.threshold_ms {
                // Close in the physical internet: same-cluster material.
                match self.registry.cluster_of(c) {
                    None => {
                        // Adopt the unclustered close node into our cluster
                        // (it JOINs us).
                        view.count_control(&Message::Join);
                        view.count_address_list(
                            MessageKind::ClusterList,
                            self.registry.size(my_cluster),
                        );
                        self.registry.assign(c, my_cluster);
                        if intra_used < intra_budget {
                            connect.push(c);
                            intra_used += 1;
                        }
                    }
                    Some(cc) if cc == my_cluster => {
                        if intra_used < intra_budget {
                            connect.push(c);
                            intra_used += 1;
                        }
                    }
                    Some(other) => {
                        // A close pair spanning two clusters means those
                        // clusters satisfy Eq. 1 transitively: merge them
                        // (single-linkage) and treat the link as intra.
                        self.registry.merge(my_cluster, other);
                        if intra_used < intra_budget {
                            connect.push(c);
                            intra_used += 1;
                        }
                    }
                }
            } else if long_used < long_budget {
                connect.push(c);
                long_used += 1;
            }
        }
        TopologyActions::connect_to(connect)
    }

    fn on_leave(&mut self, node: NodeId, _view: &mut NetView<'_>) {
        self.registry.remove(node);
        self.estimator.forget_node(node);
    }

    fn cluster_of(&self, node: NodeId) -> Option<usize> {
        self.registry.cluster_of(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_net::{MessageKind, NetConfig, Network};

    fn build(n: usize, threshold: f64, seed: u64) -> Network {
        let mut config = NetConfig::test_scale();
        config.num_nodes = n;
        let policy = BcbptPolicy::new(BcbptConfig::with_threshold_ms(threshold));
        Network::build(config, Box::new(policy), seed).unwrap()
    }

    #[test]
    fn every_node_gets_a_cluster() {
        let mut net = build(60, 25.0, 1);
        net.warmup_ms(1_000.0);
        for i in 0..60u32 {
            assert!(
                net.cluster_of(NodeId::from_index(i)).is_some(),
                "node {i} unclustered"
            );
        }
    }

    #[test]
    fn cluster_peers_are_mostly_close() {
        let mut net = build(80, 25.0, 2);
        net.warmup_ms(3_000.0);
        // Among connected same-cluster pairs, most should be under (or near)
        // the threshold in ground-truth RTT.
        let mut close = 0usize;
        let mut total = 0usize;
        for (a, b) in net.links().edges().collect::<Vec<_>>() {
            if net.cluster_of(a) == net.cluster_of(b) {
                total += 1;
                if net.base_rtt_ms(a, b) < 25.0 * 1.5 {
                    close += 1;
                }
            }
        }
        assert!(total > 0);
        let frac = close as f64 / total as f64;
        assert!(
            frac > 0.5,
            "only {frac:.2} of intra-cluster links are close ({close}/{total})"
        );
    }

    #[test]
    fn network_stays_connected_across_clusters() {
        let mut net = build(60, 25.0, 3);
        net.warmup_ms(3_000.0);
        let frac = net.reachable_fraction(NodeId::from_index(0));
        assert!(frac > 0.95, "reachable fraction {frac}");
    }

    #[test]
    fn join_emits_cluster_control_and_probe_traffic() {
        // A generous threshold so that (almost) every joining node finds a
        // close-enough cluster head and performs the JOIN exchange.
        let net = build(30, 500.0, 4);
        assert!(
            net.stats().cluster_control_messages() >= 2 * (30 - 5),
            "expected most nodes to JOIN, saw {}",
            net.stats().cluster_control_messages()
        );
        assert!(
            net.stats().count(MessageKind::Ping) > 0,
            "bootstrap must measure ping distances"
        );
    }

    #[test]
    fn threshold_controls_cluster_count() {
        let clusters_at = |dt: f64| {
            let mut net = build(100, dt, 12);
            net.warmup_ms(2_000.0);
            let mut ids = std::collections::BTreeSet::new();
            for i in 0..100u32 {
                if let Some(c) = net.cluster_of(NodeId::from_index(i)) {
                    ids.insert(c);
                }
            }
            ids.len()
        };
        let tight = clusters_at(5.0);
        let loose = clusters_at(400.0);
        assert!(
            tight > loose,
            "tight threshold must fragment clusters: {tight} vs {loose}"
        );
        assert!(loose <= 10, "a 400ms threshold should form few clusters");
    }

    #[test]
    fn smaller_threshold_makes_smaller_clusters() {
        let sizes = |threshold: f64| {
            let mut net = build(100, threshold, 5);
            net.warmup_ms(2_000.0);
            // Count clusters by distinct ids.
            let mut ids = std::collections::BTreeSet::new();
            for i in 0..100u32 {
                if let Some(c) = net.cluster_of(NodeId::from_index(i)) {
                    ids.insert(c);
                }
            }
            ids.len()
        };
        let tight = sizes(10.0);
        let loose = sizes(200.0);
        assert!(
            tight >= loose,
            "tight threshold should produce at least as many clusters ({tight} vs {loose})"
        );
    }

    #[test]
    fn policy_survives_churn() {
        let mut config = NetConfig::test_scale();
        config.num_nodes = 40;
        config.churn = bcbpt_geo::ChurnModel {
            median_session_ms: 2_000.0,
            session_sigma: 0.8,
            mean_offline_ms: 800.0,
        };
        let policy = BcbptPolicy::new(BcbptConfig::paper());
        let mut net = Network::build(config, Box::new(policy), 6).unwrap();
        net.run_for_ms(15_000.0);
        assert!(net.online_count() > 0);
        // Online nodes keep cluster membership.
        let mut clustered = 0;
        for i in 0..40u32 {
            let node = NodeId::from_index(i);
            if net.is_online(node) && net.cluster_of(node).is_some() {
                clustered += 1;
            }
        }
        assert!(clustered > 0);
    }

    #[test]
    fn ping_spoofers_infiltrate_bcbpt_clusters() {
        // The proximity-forgery attack end to end at the policy layer:
        // attackers answering probes with forged nearness get adopted into
        // honest clusters (and trigger merge cascades that collapse the
        // cluster structure), far beyond their honest baseline.
        let infiltration = |spoof: Option<f64>| {
            let mut config = NetConfig::test_scale();
            config.num_nodes = 80;
            let policy = BcbptPolicy::new(BcbptConfig::paper());
            let mut net = Network::build(config, Box::new(policy), 21).unwrap();
            if let Some(spoof_factor) = spoof {
                let force = bcbpt_adversary::AdversaryForce::new(
                    bcbpt_adversary::AdversaryStrategy::PingSpoof { spoof_factor },
                    80,
                    8,
                )
                .unwrap();
                net.set_adversary(Box::new(force));
            }
            net.warmup_ms(3_000.0);
            let is_attacker = |node: NodeId| node.index().is_multiple_of(10); // attacker_ids(80, 8)
            let mut attacker_clusters = std::collections::BTreeSet::new();
            let mut all_clusters = std::collections::BTreeSet::new();
            for i in 0..80u32 {
                let node = NodeId::from_index(i);
                if let Some(c) = net.cluster_of(node) {
                    all_clusters.insert(c);
                    if is_attacker(node) {
                        attacker_clusters.insert(c);
                    }
                }
            }
            let mut infiltrated = 0usize;
            let mut clustered = 0usize;
            for i in 0..80u32 {
                let node = NodeId::from_index(i);
                if is_attacker(node) || !net.is_online(node) {
                    continue;
                }
                if let Some(c) = net.cluster_of(node) {
                    clustered += 1;
                    if attacker_clusters.contains(&c) {
                        infiltrated += 1;
                    }
                }
            }
            (
                infiltrated as f64 / clustered.max(1) as f64,
                all_clusters.len(),
            )
        };
        let (clean, clean_clusters) = infiltration(None);
        let (spoofed, spoofed_clusters) = infiltration(Some(0.02));
        assert!(
            spoofed > clean + 0.25 && spoofed > 0.8,
            "spoofed infiltration {spoofed} must clearly exceed clean {clean}"
        );
        assert!(
            spoofed_clusters * 4 < clean_clusters,
            "forged proximity must collapse the cluster structure \
             ({clean_clusters} clean vs {spoofed_clusters} spoofed clusters)"
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_rejected() {
        BcbptPolicy::new(BcbptConfig::with_threshold_ms(0.0));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(BcbptConfig::paper().threshold_ms, 25.0);
        assert_eq!(BcbptConfig::with_threshold_ms(50.0).threshold_ms, 50.0);
        assert_eq!(BcbptConfig::default(), BcbptConfig::paper());
    }
}
