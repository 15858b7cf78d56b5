//! Neighbour-selection policy abstraction.
//!
//! The paper's three protocols — vanilla Bitcoin (random neighbours), LBC
//! (geographic clusters) and BCBPT (ping-latency clusters) — differ *only*
//! in how nodes choose whom to connect to. The fabric therefore delegates
//! every topology decision to a [`NeighborPolicy`], giving the policy a
//! [`NetView`] through which it can inspect geography, measure ping
//! latencies (at an accounted message cost) and steer connections.

use crate::adversary::Adversary;
use crate::config::NetConfig;
use crate::ids::NodeId;
use crate::links::Links;
use crate::msg::{Message, MessageKind};
use crate::node::NodeMeta;
use crate::online::OnlineSet;
use crate::routes::RouteTable;
use crate::stats::MessageStats;
use bcbpt_geo::LinkLatencyModel;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// Topology changes a policy requests after a discovery tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopologyActions {
    /// Peers to dial (outbound).
    pub connect: Vec<NodeId>,
    /// Existing connections to drop.
    pub disconnect: Vec<NodeId>,
}

impl TopologyActions {
    /// No changes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Dial the given peers.
    pub fn connect_to(connect: Vec<NodeId>) -> Self {
        TopologyActions {
            connect,
            disconnect: Vec::new(),
        }
    }

    /// `true` when nothing is requested.
    pub fn is_empty(&self) -> bool {
        self.connect.is_empty() && self.disconnect.is_empty()
    }
}

/// A neighbour-selection protocol.
///
/// Implementations live in `bcbpt-cluster`; the fabric calls these hooks:
///
/// * [`bootstrap`](Self::bootstrap) — when a node first joins (or rejoins
///   after churn): return the initial outbound targets.
/// * [`on_discovery`](Self::on_discovery) — every discovery tick (paper:
///   100 ms): the node has learned `discovered` addresses; return topology
///   actions.
/// * [`on_leave`](Self::on_leave) — the node went offline.
///
/// Policies that maintain clusters should report membership through
/// [`cluster_of`](Self::cluster_of) so experiments can inspect cluster
/// structure.
///
/// Policies are `Send + Sync` and cloneable so campaigns can snapshot a
/// warmed-up network (policy state included) and fan independent measuring
/// runs out across worker threads.
pub trait NeighborPolicy: core::fmt::Debug + Send + Sync {
    /// Short name used in reports (`"bitcoin"`, `"lbc"`, `"bcbpt"`).
    fn name(&self) -> &'static str;

    /// Clones the policy (with its full state) into a fresh box — the
    /// per-run snapshot primitive of the parallel campaign runner.
    fn clone_box(&self) -> Box<dyn NeighborPolicy>;

    /// Initial outbound targets for a (re)joining node.
    fn bootstrap(&mut self, node: NodeId, view: &mut NetView<'_>) -> Vec<NodeId>;

    /// Reaction to a discovery tick.
    fn on_discovery(
        &mut self,
        node: NodeId,
        discovered: &[NodeId],
        view: &mut NetView<'_>,
    ) -> TopologyActions;

    /// Notification that `node` disconnected from the network.
    fn on_leave(&mut self, node: NodeId, view: &mut NetView<'_>);

    /// The cluster `node` currently belongs to, if this policy clusters.
    fn cluster_of(&self, _node: NodeId) -> Option<usize> {
        None
    }
}

impl Clone for Box<dyn NeighborPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The policy's window into the network.
///
/// Everything a protocol implementation may legitimately observe: node
/// geography (DNS seeds know coarse location), liveness, the connection
/// table, and *measured* ping latencies. Measurements cost accounted
/// PING/PONG messages, which is how the overhead experiment (paper §IV.A,
/// future work) is fed.
#[derive(Debug)]
pub struct NetView<'a> {
    pub(crate) meta: &'a [NodeMeta],
    pub(crate) links: &'a Links,
    pub(crate) online: &'a OnlineSet,
    pub(crate) latency: &'a LinkLatencyModel,
    pub(crate) routes: &'a RouteTable,
    pub(crate) stats: &'a mut MessageStats,
    pub(crate) rng: &'a mut ChaCha12Rng,
    pub(crate) config: &'a NetConfig,
    pub(crate) adversary: Option<&'a mut (dyn Adversary + 'static)>,
}

impl<'a> NetView<'a> {
    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.meta.len()
    }

    /// Whether `node` is currently online.
    pub fn is_online(&self, node: NodeId) -> bool {
        self.meta[node.index()].online
    }

    /// Country tag of `node` (what the LBC baseline clusters on). Borrowed
    /// from the network, not from the view, so it can be held across
    /// `&mut self` calls.
    pub fn country(&self, node: NodeId) -> &'a str {
        &self.meta[node.index()].placement.country
    }

    /// Great-circle distance between two nodes in kilometres — the
    /// geographic knowledge a DNS seed can derive from IP geolocation.
    pub fn geo_distance_km(&self, a: NodeId, b: NodeId) -> f64 {
        self.meta[a.index()]
            .placement
            .point
            .distance_km(&self.meta[b.index()].placement.point)
    }

    /// Noise-free ground-truth RTT (ms). Reserved for tests and analysis;
    /// protocol implementations should use [`measure_rtt_ms`] which pays the
    /// message cost and sees congestion noise.
    ///
    /// [`measure_rtt_ms`]: Self::measure_rtt_ms
    pub fn base_rtt_ms(&self, a: NodeId, b: NodeId) -> f64 {
        let ma = &self.meta[a.index()];
        let mb = &self.meta[b.index()];
        2.0 * self.latency.base_one_way_ms_with_route(
            &ma.placement.point,
            &mb.placement.point,
            &ma.access,
            &mb.access,
            self.routes.stretch(a, b),
        )
    }

    /// Measures the RTT from `a` to `b` the way a real node would: send
    /// `config.ping_samples` pings, average the noisy round trips. Each
    /// sample costs one PING and one PONG, recorded in the traffic stats.
    ///
    /// The averaged measurement passes through the installed behavioural
    /// adversary (if any): an attacker endpoint can forge the value its
    /// probes report, which is how proximity spoofing reaches the
    /// clustering protocols' RTT estimators.
    pub fn measure_rtt_ms(&mut self, a: NodeId, b: NodeId) -> f64 {
        let samples = self.config.ping_samples.max(1);
        let base_one_way = self.base_rtt_ms(a, b) / 2.0;
        let mut total = 0.0;
        for _ in 0..samples {
            let out = self.latency.sample_one_way_ms(base_one_way, self.rng);
            let back = self.latency.sample_one_way_ms(base_one_way, self.rng);
            total += out + back;
            let nonce = self.rng.gen();
            self.stats.record(&Message::Ping { nonce });
            self.stats.record(&Message::Pong { nonce });
        }
        let measured = total / samples as f64;
        match &mut self.adversary {
            Some(adversary) => adversary.rewrite_rtt_ms(a, b, measured),
            None => measured,
        }
    }

    /// Records a control message the policy conceptually sent (e.g. the
    /// BCBPT JOIN / CLUSTERLIST exchange) without scheduling a delivery —
    /// topology changes are applied synchronously, but their traffic must
    /// still show up in the overhead accounting.
    pub fn count_control(&mut self, msg: &Message) {
        self.stats.record(msg);
    }

    /// [`count_control`](Self::count_control) for an address list — an
    /// ADDR or CLUSTERLIST of `entries` addresses — sized from the count,
    /// so the policy need not collect the list it only wants accounted.
    pub fn count_address_list(&mut self, kind: MessageKind, entries: usize) {
        self.stats.record_address_list(kind, entries);
    }

    /// Established peers of `node`, in id order.
    pub fn peers(&self, node: NodeId) -> impl Iterator<Item = NodeId> + 'a {
        self.links.peers(node).iter().copied()
    }

    /// Whether `a` and `b` are connected.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.links.connected(a, b)
    }

    /// Number of outbound connections `node` holds.
    pub fn outbound_count(&self, node: NodeId) -> usize {
        self.links.outbound_count(node)
    }

    /// Number of inbound connections `node` holds.
    pub fn inbound_count(&self, node: NodeId) -> usize {
        self.links.inbound_count(node)
    }

    /// Free outbound slots of `node` under the configured cap.
    pub fn free_outbound_slots(&self, node: NodeId) -> usize {
        self.config
            .target_outbound
            .saturating_sub(self.links.outbound_count(node))
    }

    /// Whether `node` can accept one more inbound connection.
    pub fn can_accept_inbound(&self, node: NodeId) -> bool {
        self.links.inbound_count(node) < self.config.max_inbound
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        self.config
    }

    /// Draws from the policy's deterministic random stream.
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        self.rng
    }

    /// The traffic counters (read-only).
    pub fn stats(&self) -> &MessageStats {
        self.stats
    }

    /// Samples `k` distinct online nodes uniformly, excluding `exclude` —
    /// the "normal Bitcoin network nodes discovery mechanism" the paper
    /// refers to.
    pub fn sample_online(&mut self, k: usize, exclude: NodeId) -> Vec<NodeId> {
        self.online.sample(k, exclude, self.rng)
    }

    /// Number of online nodes.
    pub fn online_count(&self) -> usize {
        self.online.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_geo::{GeoPoint, LatencyConfig, Placement};
    use rand::SeedableRng;

    fn make_meta(n: usize) -> Vec<NodeMeta> {
        (0..n)
            .map(|i| NodeMeta {
                placement: Placement {
                    point: GeoPoint::new(i as f64, i as f64).unwrap(),
                    region_index: 0,
                    country: if i % 2 == 0 { "US" } else { "DE" }.to_string(),
                },
                access: bcbpt_geo::AccessProfile {
                    access_delay_ms: 1.0,
                },
                verify_factor: 1.0,
                online: i != 3,
            })
            .collect()
    }

    fn with_view<F: FnOnce(&mut NetView<'_>)>(n: usize, f: F) {
        let meta = make_meta(n);
        let mut links = Links::new(n);
        links.connect(NodeId::from_index(0), NodeId::from_index(1));
        let mut online = OnlineSet::all_online(n);
        for (i, m) in meta.iter().enumerate() {
            if !m.online {
                online.remove(NodeId::from_index(i as u32));
            }
        }
        let latency = LinkLatencyModel::new(LatencyConfig::noiseless());
        let routes = RouteTable::new(0, 0.0);
        let mut stats = MessageStats::new();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let config = NetConfig::test_scale();
        let mut view = NetView {
            meta: &meta,
            links: &links,
            online: &online,
            latency: &latency,
            routes: &routes,
            stats: &mut stats,
            rng: &mut rng,
            config: &config,
            adversary: None,
        };
        f(&mut view);
    }

    #[test]
    fn view_exposes_liveness_and_geography() {
        with_view(6, |v| {
            assert_eq!(v.num_nodes(), 6);
            assert!(v.is_online(NodeId::from_index(0)));
            assert!(!v.is_online(NodeId::from_index(3)));
            assert_eq!(v.country(NodeId::from_index(0)), "US");
            assert_eq!(v.country(NodeId::from_index(1)), "DE");
            let d01 = v.geo_distance_km(NodeId::from_index(0), NodeId::from_index(1));
            let d05 = v.geo_distance_km(NodeId::from_index(0), NodeId::from_index(5));
            assert!(d05 > d01);
        });
    }

    #[test]
    fn measured_rtt_tracks_base_and_counts_probes() {
        with_view(6, |v| {
            let a = NodeId::from_index(0);
            let b = NodeId::from_index(5);
            let base = v.base_rtt_ms(a, b);
            let measured = v.measure_rtt_ms(a, b);
            // Noiseless config: measurement equals ground truth.
            assert!((measured - base).abs() < 1e-9);
            let samples = v.config().ping_samples as u64;
            assert_eq!(v.stats.probe_messages(), 2 * samples);
        });
    }

    #[test]
    fn connection_queries_reflect_links() {
        with_view(6, |v| {
            let a = NodeId::from_index(0);
            let b = NodeId::from_index(1);
            assert!(v.connected(a, b));
            assert_eq!(v.peers(a).collect::<Vec<_>>(), vec![b]);
            assert_eq!(v.outbound_count(a), 1);
            assert_eq!(v.inbound_count(b), 1);
            assert_eq!(v.free_outbound_slots(a), v.config().target_outbound - 1);
            assert!(v.can_accept_inbound(b));
        });
    }

    #[test]
    fn sample_online_excludes_self_and_offline() {
        with_view(6, |v| {
            let me = NodeId::from_index(0);
            for _ in 0..20 {
                let sample = v.sample_online(10, me);
                assert!(sample.len() <= 4, "5 others minus 1 offline");
                assert!(!sample.contains(&me));
                assert!(!sample.contains(&NodeId::from_index(3)));
            }
        });
    }

    #[test]
    fn count_control_feeds_stats() {
        with_view(4, |v| {
            v.count_control(&Message::Join);
            v.count_control(&Message::ClusterList { members: vec![] });
            assert_eq!(v.stats.cluster_control_messages(), 2);
            v.count_address_list(MessageKind::ClusterList, 3);
            assert_eq!(v.stats.cluster_control_messages(), 3);
        });
    }

    #[test]
    fn topology_actions_helpers() {
        assert!(TopologyActions::none().is_empty());
        let a = TopologyActions::connect_to(vec![NodeId::from_index(1)]);
        assert!(!a.is_empty());
        assert_eq!(a.connect.len(), 1);
        assert!(a.disconnect.is_empty());
    }
}
