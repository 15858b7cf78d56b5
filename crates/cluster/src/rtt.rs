//! Ping-latency estimation with repeated sampling.
//!
//! "As distances measurements are subject to network congestion and
//! therefore dynamic, within some variance, multiple messages between pairs
//! of nodes, repeatedly are sent over the time in order to determine
//! variance." (paper §IV.A). The estimator caches per-pair measurements,
//! refreshes them periodically, and exposes both the running mean and the
//! observed variance.

use bcbpt_net::{NetView, NodeId};
use std::collections::VecDeque;

/// Configuration of the [`RttEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttEstimatorConfig {
    /// Re-measure a cached pair after this many queries (the paper keeps
    /// measuring "over the time"; 0 disables refresh).
    pub refresh_every: u32,
    /// Maximum cached pairs; oldest-inserted entries are evicted beyond it.
    pub max_entries: usize,
}

impl Default for RttEstimatorConfig {
    fn default() -> Self {
        RttEstimatorConfig {
            refresh_every: 8,
            max_entries: 100_000,
        }
    }
}

/// One cached pairwise estimate: a Welford running mean/variance (the
/// arithmetic of `bcbpt_stats::Summary::record`, without the min/max the
/// estimator never reads) plus the refresh counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Entry {
    queries_since_refresh: u32,
    count: u32,
    mean: f64,
    m2: f64,
}

impl Entry {
    /// Records one measurement; non-finite samples are ignored.
    fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / f64::from(self.count);
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Running mean; `0.0` when every sample so far was non-finite.
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }
}

/// Caching RTT estimator shared by the clustering policies.
///
/// Measurements go through [`NetView::measure_rtt_ms`], so every refresh
/// costs accounted PING/PONG messages — the overhead the paper defers to
/// future work and this reproduction measures.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    config: RttEstimatorConfig,
    /// The cache, one row per lower node id of a pair: `rows[lo]` holds
    /// `(hi, entry)` for every cached pair `(lo, hi)`, `lo <= hi`, sorted
    /// by `hi`. BCBPT looks a handful of pairs up on every discovery tick;
    /// a row is one contiguous allocation found by index, so a lookup is a
    /// binary search over a few cache lines instead of a walk down a tree
    /// of ~100 k scattered entries.
    rows: Vec<Vec<(NodeId, Entry)>>,
    /// Number of cached pairs across all rows.
    len: usize,
    /// Keys in insertion order, for O(1) amortised FIFO eviction. May hold
    /// stale keys (already evicted/forgotten); they are skipped on pop.
    insertion_queue: VecDeque<(NodeId, NodeId)>,
}

impl RttEstimator {
    /// Creates an estimator with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an estimator with the given configuration.
    pub fn with_config(config: RttEstimatorConfig) -> Self {
        RttEstimator {
            config,
            ..Self::default()
        }
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Position of `hi` in `row`, or where it would be inserted.
    fn find(row: &[(NodeId, Entry)], hi: NodeId) -> Result<usize, usize> {
        row.binary_search_by_key(&hi, |&(id, _)| id)
    }

    fn entry(&self, a: NodeId, b: NodeId) -> Option<&Entry> {
        let (lo, hi) = Self::key(a, b);
        let row = self.rows.get(lo.index())?;
        Self::find(row, hi).ok().map(|at| &row[at].1)
    }

    fn entry_mut(&mut self, lo: NodeId, hi: NodeId) -> Option<&mut Entry> {
        let row = self.rows.get_mut(lo.index())?;
        Self::find(row, hi).ok().map(|at| &mut row[at].1)
    }

    /// Removes the pair `(lo, hi)` if it is cached.
    fn remove(&mut self, lo: NodeId, hi: NodeId) {
        let Some(row) = self.rows.get_mut(lo.index()) else {
            return;
        };
        if let Ok(at) = Self::find(row, hi) {
            row.remove(at);
            self.len -= 1;
        }
    }

    /// The estimated RTT between `a` and `b` in milliseconds, measuring (at
    /// message cost) when the pair is unknown or due for refresh.
    pub fn estimate_ms(&mut self, a: NodeId, b: NodeId, view: &mut NetView<'_>) -> f64 {
        let (lo, hi) = Self::key(a, b);
        let refresh_every = self.config.refresh_every;
        if let Some(entry) = self.entry_mut(lo, hi) {
            entry.queries_since_refresh += 1;
            // The measuring query counts towards the period, so a period of
            // `refresh_every` re-measures on every `refresh_every`-th query.
            if refresh_every == 0 || entry.queries_since_refresh + 1 < refresh_every {
                return entry.mean();
            }
            entry.record(view.measure_rtt_ms(a, b));
            entry.queries_since_refresh = 0;
            return entry.mean();
        }
        let sample = view.measure_rtt_ms(a, b);
        let mut entry = Entry::default();
        entry.record(sample);
        if self.rows.len() <= lo.index() {
            self.rows.resize_with(lo.index() + 1, Vec::new);
        }
        let row = &mut self.rows[lo.index()];
        let at = Self::find(row, hi).expect_err("the lookup above missed");
        row.insert(at, (hi, entry));
        self.len += 1;
        self.insertion_queue.push_back((lo, hi));
        self.evict_if_needed();
        sample
    }

    /// The cached estimate for a pair without triggering a measurement —
    /// what the policy currently *believes* the RTT is. This is the value
    /// a ping-spoofing adversary poisons, so security experiments inspect
    /// it to compare belief against ground truth.
    pub fn cached_ms(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.entry(a, b).map(Entry::mean)
    }

    /// Observed sample variance for a pair, if it has been measured more
    /// than once.
    pub fn variance_ms2(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let e = self.entry(a, b)?;
        (e.count >= 2).then(|| e.m2 / f64::from(e.count - 1))
    }

    /// Number of measurement samples recorded for a pair.
    pub fn samples(&self, a: NodeId, b: NodeId) -> u64 {
        self.entry(a, b).map_or(0, |e| u64::from(e.count))
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all cached pairs involving `node` (it left the network; its
    /// next session may have different access characteristics).
    pub fn forget_node(&mut self, node: NodeId) {
        // Pairs with `node` as the higher id sit in the rows below its
        // own; pairs with it as the lower id are its own row.
        for row in self.rows.iter_mut().take(node.index()) {
            if let Ok(at) = Self::find(row, node) {
                row.remove(at);
                self.len -= 1;
            }
        }
        if let Some(own) = self.rows.get_mut(node.index()) {
            self.len -= own.len();
            own.clear();
        }
    }

    fn evict_if_needed(&mut self) {
        while self.len > self.config.max_entries {
            match self.insertion_queue.pop_front() {
                // Stale queue entries (already evicted or forgotten)
                // simply miss here and we keep popping.
                Some((lo, hi)) => self.remove(lo, hi),
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcbpt_net::{MessageKind, NetConfig, Network, RandomPolicy};

    /// Builds a tiny network and hands its view to the closure.
    fn with_view<F: FnOnce(&mut NetView<'_>)>(f: F) {
        let mut config = NetConfig::test_scale();
        config.num_nodes = 10;
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 99).unwrap();
        net.with_view(f);
    }

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn first_estimate_measures() {
        with_view(|view| {
            let mut est = RttEstimator::new();
            let before = view.stats().count(MessageKind::Ping);
            let rtt = est.estimate_ms(n(0), n(1), view);
            assert!(rtt > 0.0);
            let after = view.stats().count(MessageKind::Ping);
            assert!(after > before, "first estimate must send pings");
            assert_eq!(est.samples(n(0), n(1)), 1);
        });
    }

    #[test]
    fn cached_estimate_is_free_until_refresh() {
        with_view(|view| {
            let mut est = RttEstimator::with_config(RttEstimatorConfig {
                refresh_every: 4,
                max_entries: 100,
            });
            let _ = est.estimate_ms(n(0), n(1), view);
            let pings_after_first = view.stats().count(MessageKind::Ping);
            let _ = est.estimate_ms(n(0), n(1), view);
            let _ = est.estimate_ms(n(0), n(1), view);
            assert_eq!(
                view.stats().count(MessageKind::Ping),
                pings_after_first,
                "cached queries are free"
            );
            let _ = est.estimate_ms(n(0), n(1), view);
            assert!(
                view.stats().count(MessageKind::Ping) > pings_after_first,
                "4th query refreshes"
            );
            assert_eq!(est.samples(n(0), n(1)), 2);
            assert!(est.variance_ms2(n(0), n(1)).is_some());
        });
    }

    #[test]
    fn pair_key_is_symmetric() {
        with_view(|view| {
            let mut est = RttEstimator::new();
            let _ = est.estimate_ms(n(2), n(5), view);
            assert_eq!(est.samples(n(5), n(2)), 1, "same cache entry");
            assert_eq!(est.len(), 1);
        });
    }

    #[test]
    fn forget_node_drops_its_pairs() {
        with_view(|view| {
            let mut est = RttEstimator::new();
            let _ = est.estimate_ms(n(0), n(1), view);
            let _ = est.estimate_ms(n(0), n(2), view);
            let _ = est.estimate_ms(n(1), n(2), view);
            est.forget_node(n(0));
            assert_eq!(est.len(), 1);
            assert_eq!(est.samples(n(1), n(2)), 1);
        });
    }

    #[test]
    fn eviction_bounds_cache() {
        with_view(|view| {
            let mut est = RttEstimator::with_config(RttEstimatorConfig {
                refresh_every: 0,
                max_entries: 3,
            });
            for i in 1..=6u32 {
                let _ = est.estimate_ms(n(0), n(i), view);
            }
            assert_eq!(est.len(), 3);
            // Oldest entries (0,1).. evicted; newest retained.
            assert_eq!(est.samples(n(0), n(6)), 1);
            assert_eq!(est.samples(n(0), n(1)), 0);
        });
    }

    #[test]
    fn refresh_disabled_never_remeasures() {
        with_view(|view| {
            let mut est = RttEstimator::with_config(RttEstimatorConfig {
                refresh_every: 0,
                max_entries: 100,
            });
            let _ = est.estimate_ms(n(0), n(1), view);
            let pings = view.stats().count(MessageKind::Ping);
            for _ in 0..50 {
                let _ = est.estimate_ms(n(0), n(1), view);
            }
            assert_eq!(view.stats().count(MessageKind::Ping), pings);
        });
    }

    #[test]
    fn cached_ms_reads_without_measuring() {
        with_view(|view| {
            let mut est = RttEstimator::new();
            assert_eq!(est.cached_ms(n(0), n(1)), None, "unknown pair");
            let rtt = est.estimate_ms(n(0), n(1), view);
            let pings = view.stats().count(MessageKind::Ping);
            assert_eq!(est.cached_ms(n(0), n(1)), Some(rtt));
            assert_eq!(est.cached_ms(n(1), n(0)), Some(rtt), "symmetric key");
            assert_eq!(
                view.stats().count(MessageKind::Ping),
                pings,
                "reading the cache costs nothing"
            );
        });
    }

    #[test]
    fn spoofed_measurements_poison_the_cache() {
        // A ping-spoofing adversary sits between the estimator and the
        // network: what the estimator caches is the forged value, not the
        // ground truth — exactly the attack surface BCBPT exposes.
        let mut config = NetConfig::test_scale();
        config.num_nodes = 10;
        let mut net = Network::build(config, Box::new(RandomPolicy::new()), 99).unwrap();
        let truth = net.base_rtt_ms(n(0), n(1));
        let force = bcbpt_adversary::AdversaryForce::new(
            bcbpt_adversary::AdversaryStrategy::PingSpoof { spoof_factor: 0.01 },
            10,
            1, // attacker_ids(10, 1) = {0}
        )
        .unwrap();
        net.set_adversary(Box::new(force));
        net.with_view(|view| {
            let mut est = RttEstimator::new();
            let believed = est.estimate_ms(n(1), n(0), view);
            assert!(
                believed < truth * 0.1,
                "spoofed belief {believed} should be far below truth {truth}"
            );
            assert_eq!(est.cached_ms(n(1), n(0)), Some(believed));
            let honest = est.estimate_ms(n(1), n(2), view);
            assert!(honest > believed, "honest pairs are unaffected");
        });
    }

    #[test]
    fn variance_requires_two_samples() {
        with_view(|view| {
            let mut est = RttEstimator::new();
            let _ = est.estimate_ms(n(0), n(1), view);
            assert_eq!(est.variance_ms2(n(0), n(1)), None);
            assert!(est.variance_ms2(n(3), n(4)).is_none(), "unknown pair");
        });
    }
}
