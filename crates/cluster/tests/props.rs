//! Property-based tests for the clustering protocols.

use bcbpt_cluster::{
    BcbptConfig, BcbptPolicy, ClusterRegistry, LbcConfig, LbcPolicy, Protocol, RttEstimator,
    RttEstimatorConfig,
};
use bcbpt_net::{NetConfig, NetView, Network, NodeId};
use bcbpt_stats::Summary;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Registry invariants under arbitrary assign/remove/merge sequences:
    /// membership and member-sets stay mutually consistent.
    #[test]
    fn registry_consistent(ops in proptest::collection::vec((0u8..4, 0u32..20, 0usize..6), 1..200)) {
        let mut reg = ClusterRegistry::new(20);
        for _ in 0..6 {
            reg.create_cluster();
        }
        for (op, node, cluster) in ops {
            let node = NodeId::from_index(node);
            match op {
                0 | 1 => reg.assign(node, cluster),
                2 => {
                    let _ = reg.remove(node);
                }
                _ => {
                    let other = (cluster + 1) % 6;
                    reg.merge(cluster, other);
                }
            }
            // Invariant: membership and member sets agree.
            for i in 0..20u32 {
                let n = NodeId::from_index(i);
                match reg.cluster_of(n) {
                    Some(c) => prop_assert!(reg.members(c).contains(&n)),
                    None => {
                        for c in 0..reg.num_clusters() {
                            prop_assert!(!reg.members(c).contains(&n));
                        }
                    }
                }
            }
            // Sizes sum to clustered count.
            let total: usize = reg.sizes().iter().sum();
            prop_assert_eq!(total, reg.clustered_count());
        }
    }

    /// BCBPT: after warmup, every online node is in exactly one cluster and
    /// the clusters partition the node set.
    #[test]
    fn bcbpt_clusters_partition(seed in any::<u64>(), threshold in 10.0f64..200.0) {
        let mut config = NetConfig::test_scale();
        config.num_nodes = 50;
        let policy = BcbptPolicy::new(BcbptConfig::with_threshold_ms(threshold));
        let mut net = Network::build(config, Box::new(policy), seed).unwrap();
        net.warmup_ms(1_500.0);
        let mut total = 0usize;
        let mut by_cluster = std::collections::BTreeMap::new();
        for i in 0..50u32 {
            let node = NodeId::from_index(i);
            let c = net.cluster_of(node);
            prop_assert!(c.is_some());
            *by_cluster.entry(c.unwrap()).or_insert(0usize) += 1;
            total += 1;
        }
        prop_assert_eq!(total, 50);
        prop_assert_eq!(by_cluster.values().sum::<usize>(), 50);
    }

    /// LBC: cluster assignment is exactly the country partition.
    #[test]
    fn lbc_clusters_equal_countries(seed in any::<u64>()) {
        let mut config = NetConfig::test_scale();
        config.num_nodes = 40;
        let mut net = Network::build(
            config,
            Box::new(LbcPolicy::new(LbcConfig::paper())),
            seed,
        )
        .unwrap();
        net.warmup_ms(500.0);
        for i in 0..40u32 {
            for j in 0..40u32 {
                let a = NodeId::from_index(i);
                let b = NodeId::from_index(j);
                let same_country =
                    net.meta(a).placement.country == net.meta(b).placement.country;
                let same_cluster = net.cluster_of(a) == net.cluster_of(b);
                prop_assert_eq!(same_country, same_cluster,
                    "{} vs {}: country {} cluster {}", a, b, same_country, same_cluster);
            }
        }
    }

    /// All protocols keep the overlay connected without churn, for any seed.
    #[test]
    fn overlay_connected(seed in any::<u64>()) {
        for protocol in [Protocol::Bitcoin, Protocol::Lbc, Protocol::bcbpt_paper()] {
            let mut config = NetConfig::test_scale();
            config.num_nodes = 40;
            let mut net = Network::build(config, protocol.build_policy(), seed).unwrap();
            net.warmup_ms(1_500.0);
            let frac = net.reachable_fraction(NodeId::from_index(0));
            prop_assert!(frac > 0.95, "{}: reachable {}", protocol, frac);
        }
    }
}

/// The `BTreeMap`-backed estimator `RttEstimator` was before its cache
/// became sorted rows, kept as the reference model — including its FIFO
/// eviction quirk: a stale queue key (its pair already evicted or
/// forgotten) evicts whatever was re-inserted under that key since.
#[derive(Default)]
struct MapEstimator {
    config: RttEstimatorConfig,
    entries: BTreeMap<(NodeId, NodeId), (Summary, u32)>,
    insertion_queue: VecDeque<(NodeId, NodeId)>,
}

impl MapEstimator {
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }

    fn estimate_ms(&mut self, a: NodeId, b: NodeId, view: &mut NetView<'_>) -> f64 {
        let key = Self::key(a, b);
        let refresh_every = self.config.refresh_every;
        if let Some((summary, queries)) = self.entries.get_mut(&key) {
            *queries += 1;
            if refresh_every == 0 || *queries + 1 < refresh_every {
                return summary.mean();
            }
            summary.record(view.measure_rtt_ms(a, b));
            *queries = 0;
            return summary.mean();
        }
        let sample = view.measure_rtt_ms(a, b);
        let mut summary = Summary::new();
        summary.record(sample);
        self.entries.insert(key, (summary, 0));
        self.insertion_queue.push_back(key);
        while self.entries.len() > self.config.max_entries {
            match self.insertion_queue.pop_front() {
                Some(key) => {
                    self.entries.remove(&key);
                }
                None => break,
            }
        }
        sample
    }

    fn forget_node(&mut self, node: NodeId) {
        self.entries.retain(|&(a, b), _| a != node && b != node);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The row-packed estimator is the map-backed one under any script of
    /// estimates and departures, with a cache small enough that eviction,
    /// re-insertion of an evicted pair and stale queue keys all occur:
    /// same estimates bit for bit, same beliefs, same probes paid.
    #[test]
    fn rtt_estimator_matches_the_map_model(
        refresh_every in 0u32..5,
        max_entries in 1usize..8,
        script in proptest::collection::vec((0u8..8, 0u32..7, 0u32..7), 1..250)
    ) {
        const NODES: u32 = 7;
        let build = || {
            let mut config = NetConfig::test_scale();
            config.num_nodes = NODES as usize;
            config.target_outbound = 3;
            Network::build(config, Box::new(bcbpt_net::RandomPolicy::new()), 5).unwrap()
        };
        let config = RttEstimatorConfig { refresh_every, max_entries };
        let mut rows = RttEstimator::with_config(config);
        let mut model = MapEstimator { config, ..MapEstimator::default() };
        // Twin networks: each estimator draws its measurement noise from
        // its own copy of the same stream.
        let (mut net_a, mut net_b) = (build(), build());
        net_a.with_view(|view_a| {
            net_b.with_view(|view_b| {
                for &(op, a, b) in &script {
                    let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                    if op == 0 {
                        rows.forget_node(a);
                        model.forget_node(a);
                    } else {
                        let got = rows.estimate_ms(a, b, view_a);
                        let want = model.estimate_ms(a, b, view_b);
                        assert_eq!(got.to_bits(), want.to_bits(), "estimate {a}-{b}");
                    }
                    assert_eq!(rows.len(), model.entries.len());
                    assert_eq!(rows.is_empty(), model.entries.is_empty());
                    for i in 0..NODES {
                        for j in 0..NODES {
                            let (x, y) = (NodeId::from_index(i), NodeId::from_index(j));
                            let cached = model.entries.get(&MapEstimator::key(x, y));
                            assert_eq!(
                                rows.cached_ms(x, y).map(f64::to_bits),
                                cached.map(|(s, _)| s.mean().to_bits()),
                                "belief {x}-{y}"
                            );
                            assert_eq!(rows.samples(x, y), cached.map_or(0, |(s, _)| s.count()));
                            assert_eq!(
                                rows.variance_ms2(x, y).map(f64::to_bits),
                                cached
                                    .filter(|(s, _)| s.count() >= 2)
                                    .map(|(s, _)| s.sample_variance().to_bits())
                            );
                        }
                    }
                }
                assert_eq!(view_a.stats(), view_b.stats(), "same probes paid");
            });
        });
    }
}
