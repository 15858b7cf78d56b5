//! LBC — Locality Based Clustering (the authors' earlier protocol, used as
//! the clustered baseline in the paper's Fig. 3).
//!
//! LBC "aims to convert the Bitcoin network topology from normal randomised
//! neighbour selection to location based neighbour selection. Clusters in
//! LBC protocol are formulated by referring an extra function to each node
//! ... each node is responsible for recommending proximity nodes to its
//! neighbours. The proximity is defined based on the physical geographical
//! location." (§V.C, and the authors' ref \[6\]).
//!
//! Concretely: clusters are keyed by country (geolocation of the IP), nodes
//! connect preferentially to geographically nearby same-country nodes, each
//! node keeps a few long links outside its cluster, and peers recommend
//! their own nearby peers. Crucially LBC never *measures* latency — which
//! is exactly the weakness BCBPT fixes, since geographic proximity is an
//! imperfect proxy for internet proximity.

use crate::registry::ClusterRegistry;
use bcbpt_net::{
    geo_ranked_candidates, MessageKind, NeighborPolicy, NetView, NodeId, TopologyActions,
};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// LBC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbcConfig {
    /// Outbound slots reserved for links outside the cluster.
    pub long_links: usize,
    /// DNS candidates requested when joining.
    pub candidate_pool: usize,
    /// Peer recommendations accepted per maintenance round.
    pub recommendation_budget: usize,
}

impl LbcConfig {
    /// Configuration matching the paper's comparison setup.
    pub fn paper() -> Self {
        LbcConfig {
            long_links: 2,
            candidate_pool: 16,
            recommendation_budget: 8,
        }
    }
}

impl Default for LbcConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The LBC neighbour-selection policy.
///
/// # Examples
///
/// ```
/// use bcbpt_cluster::{LbcConfig, LbcPolicy};
/// use bcbpt_net::{NetConfig, Network, NodeId};
///
/// let mut config = NetConfig::test_scale();
/// config.num_nodes = 40;
/// let mut net = Network::build(config, Box::new(LbcPolicy::new(LbcConfig::paper())), 7)?;
/// net.warmup_ms(1_000.0);
/// assert!(net.cluster_of(NodeId::from_index(0)).is_some());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct LbcPolicy {
    config: LbcConfig,
    registry: ClusterRegistry,
    country_clusters: BTreeMap<String, usize>,
}

impl LbcPolicy {
    /// Creates the policy.
    pub fn new(config: LbcConfig) -> Self {
        LbcPolicy {
            config,
            registry: ClusterRegistry::new(0),
            country_clusters: BTreeMap::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LbcConfig {
        &self.config
    }

    /// The cluster registry for experiment inspection.
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
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

    fn cluster_for_country(&mut self, country: &str) -> usize {
        if let Some(&c) = self.country_clusters.get(country) {
            return c;
        }
        let c = self.registry.create_cluster();
        self.country_clusters.insert(country.to_string(), c);
        c
    }

    fn intra_target(&self, view: &NetView<'_>) -> usize {
        view.config()
            .target_outbound
            .saturating_sub(self.config.long_links)
            .max(1)
    }

    fn join(&mut self, node: NodeId, view: &mut NetView<'_>) -> Vec<NodeId> {
        let country = view.country(node);
        let cluster = self.cluster_for_country(country);
        self.registry.assign(node, cluster);

        let candidates = geo_ranked_candidates(view, node, self.config.candidate_pool);
        // Same-country candidates, geographically nearest first (the DNS
        // ranking already sorted by distance).
        let intra_budget = self.intra_target(view);
        let mut targets: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&c| view.country(c) == country)
            .take(intra_budget)
            .collect();

        // Also connect to known cluster members (the "recommendation"
        // function of LBC: members advertise each other).
        if targets.len() < intra_budget {
            let members: Vec<NodeId> = self
                .registry
                .members(cluster)
                .iter()
                .copied()
                .filter(|&m| m != node && view.is_online(m) && !targets.contains(&m))
                .take(intra_budget - targets.len())
                .collect();
            if !members.is_empty() {
                view.count_address_list(MessageKind::Addr, members.len());
                targets.extend(members);
            }
        }

        // Long links to other clusters.
        let mut outside: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&c| view.country(c) != country && !targets.contains(&c))
            .collect();
        outside.shuffle(view.rng());
        targets.extend(outside.iter().copied().take(self.config.long_links));

        // Fill remaining slots with any candidates so no node is stranded.
        let want = view.config().target_outbound;
        if targets.len() < want {
            for &c in &candidates {
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

impl NeighborPolicy for LbcPolicy {
    fn name(&self) -> &'static str {
        "lbc"
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
            return TopologyActions::connect_to(self.join(node, view));
        }
        let free = view.free_outbound_slots(node);
        if free == 0 {
            return TopologyActions::none();
        }
        let country = view.country(node);

        // Peer recommendations: my peers advertise their own same-country
        // peers (the LBC "extra function").
        let mut recommended: Vec<NodeId> = Vec::new();
        for peer in view.peers(node) {
            for second in view.peers(peer) {
                if recommended.len() >= self.config.recommendation_budget {
                    break;
                }
                if second != node
                    && view.country(second) == country
                    && !view.connected(node, second)
                    && !recommended.contains(&second)
                {
                    recommended.push(second);
                }
            }
        }
        if !recommended.is_empty() {
            view.count_address_list(MessageKind::Addr, recommended.len());
        }

        // Prefer same-country (recommended first, then discovered), then
        // top up long links with anything else.
        let mut connect: Vec<NodeId> = Vec::new();
        for c in recommended.into_iter().chain(
            discovered
                .iter()
                .copied()
                .filter(|&c| c != node && view.is_online(c) && view.country(c) == country),
        ) {
            if connect.len() >= free {
                break;
            }
            if view.is_online(c) && !view.connected(node, c) && !connect.contains(&c) {
                connect.push(c);
            }
        }
        for &c in discovered {
            if connect.len() >= free {
                break;
            }
            if c != node && view.is_online(c) && !view.connected(node, c) && !connect.contains(&c) {
                connect.push(c);
            }
        }
        TopologyActions::connect_to(connect)
    }

    fn on_leave(&mut self, node: NodeId, _view: &mut NetView<'_>) {
        self.registry.remove(node);
    }

    fn cluster_of(&self, node: NodeId) -> Option<usize> {
        self.registry.cluster_of(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_net::{NetConfig, Network};

    fn build(n: usize, seed: u64) -> Network {
        let mut config = NetConfig::test_scale();
        config.num_nodes = n;
        Network::build(config, Box::new(LbcPolicy::new(LbcConfig::paper())), seed).unwrap()
    }

    #[test]
    fn clusters_follow_countries() {
        let mut net = build(80, 1);
        net.warmup_ms(1_000.0);
        // Two nodes in the same country share a cluster id.
        for i in 0..80u32 {
            for j in (i + 1)..80u32 {
                let a = NodeId::from_index(i);
                let b = NodeId::from_index(j);
                let same_country = net.meta(a).placement.country == net.meta(b).placement.country;
                let same_cluster = net.cluster_of(a) == net.cluster_of(b);
                if same_country {
                    assert!(
                        same_cluster,
                        "same-country nodes {a},{b} in different clusters"
                    );
                }
            }
        }
    }

    #[test]
    fn most_links_are_same_country() {
        let mut net = build(100, 2);
        net.warmup_ms(2_000.0);
        let mut same = 0usize;
        let mut total = 0usize;
        for (a, b) in net.links().edges().collect::<Vec<_>>() {
            total += 1;
            if net.meta(a).placement.country == net.meta(b).placement.country {
                same += 1;
            }
        }
        assert!(total > 0);
        let frac = same as f64 / total as f64;
        assert!(frac > 0.4, "same-country link fraction {frac}");
    }

    #[test]
    fn network_stays_connected() {
        let mut net = build(60, 3);
        net.warmup_ms(2_000.0);
        let frac = net.reachable_fraction(NodeId::from_index(0));
        assert!(frac > 0.95, "reachable fraction {frac}");
    }

    #[test]
    fn lbc_never_pings() {
        let mut net = build(50, 4);
        net.warmup_ms(2_000.0);
        assert_eq!(
            net.stats().probe_messages(),
            0,
            "LBC selects by location only — no latency probing"
        );
    }

    #[test]
    fn every_node_clustered() {
        let mut net = build(50, 5);
        net.warmup_ms(500.0);
        for i in 0..50u32 {
            assert!(net.cluster_of(NodeId::from_index(i)).is_some());
        }
    }

    #[test]
    fn survives_churn() {
        let mut config = NetConfig::test_scale();
        config.num_nodes = 40;
        config.churn = bcbpt_geo::ChurnModel {
            median_session_ms: 2_000.0,
            session_sigma: 0.8,
            mean_offline_ms: 800.0,
        };
        let mut net =
            Network::build(config, Box::new(LbcPolicy::new(LbcConfig::paper())), 6).unwrap();
        net.run_for_ms(15_000.0);
        assert!(net.online_count() > 0);
    }

    #[test]
    fn config_default_is_paper() {
        assert_eq!(LbcConfig::default(), LbcConfig::paper());
    }
}
