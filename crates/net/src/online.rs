//! O(1) membership / O(k) sampling set of online nodes.
//!
//! Discovery ticks fire for every node every 100 ms (paper §V.B); sampling
//! candidates must not be O(network size) per tick or full-scale runs crawl.

use crate::ids::NodeId;
use rand::Rng;

/// Swap-remove indexed set of online nodes supporting uniform sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineSet {
    list: Vec<NodeId>,
    pos: Vec<Option<usize>>,
}

impl OnlineSet {
    /// Creates a set over `n` node ids, all initially online.
    pub fn all_online(n: usize) -> Self {
        OnlineSet {
            list: (0..n as u32).map(NodeId::from_index).collect(),
            pos: (0..n).map(Some).collect(),
        }
    }

    /// Creates a set over `n` node ids, all initially offline.
    pub fn all_offline(n: usize) -> Self {
        OnlineSet {
            list: Vec::new(),
            pos: vec![None; n],
        }
    }

    /// Number of online nodes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` when no node is online.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// `true` when `node` is online. Out-of-range ids are simply "not
    /// online", which lets callers use sentinel ids as a non-excluding
    /// `exclude` argument to [`sample`](Self::sample).
    pub fn contains(&self, node: NodeId) -> bool {
        self.pos.get(node.index()).is_some_and(Option::is_some)
    }

    /// Marks `node` online. Returns `false` if it already was.
    pub fn insert(&mut self, node: NodeId) -> bool {
        if self.pos[node.index()].is_some() {
            return false;
        }
        self.pos[node.index()] = Some(self.list.len());
        self.list.push(node);
        true
    }

    /// Marks `node` offline. Returns `false` if it already was.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Some(idx) = self.pos[node.index()].take() else {
            return false;
        };
        let last = self.list.pop().expect("pos implies non-empty");
        if last != node {
            self.list[idx] = last;
            self.pos[last.index()] = Some(idx);
        }
        true
    }

    /// Samples up to `k` distinct online nodes uniformly, excluding
    /// `exclude`. O(k) expected.
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, exclude: NodeId, rng: &mut R) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.sample_into(k, exclude, rng, &mut out);
        out
    }

    /// [`sample`](Self::sample) into a caller-owned buffer (cleared first):
    /// the same nodes from the same draws, without the allocation — every
    /// node samples on every discovery tick.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        k: usize,
        exclude: NodeId,
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let available = self
            .list
            .len()
            .saturating_sub(usize::from(self.contains(exclude)));
        let k = k.min(available);
        if k == 0 {
            return;
        }
        out.reserve(k);
        // Rejection sampling with a budget; falls back to a scan if unlucky
        // (only possible when k is close to the population size).
        let mut attempts = 0usize;
        let budget = 8 * k + 32;
        while out.len() < k && attempts < budget {
            attempts += 1;
            let candidate = self.list[rng.gen_range(0..self.list.len())];
            if candidate != exclude && !out.contains(&candidate) {
                out.push(candidate);
            }
        }
        if out.len() < k {
            for &candidate in &self.list {
                if out.len() >= k {
                    break;
                }
                if candidate != exclude && !out.contains(&candidate) {
                    out.push(candidate);
                }
            }
        }
    }

    /// All online nodes in insertion order (order is an implementation
    /// detail; do not rely on it across mutations).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.list.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = OnlineSet::all_offline(5);
        assert!(s.is_empty());
        assert!(s.insert(n(2)));
        assert!(!s.insert(n(2)));
        assert!(s.contains(n(2)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(n(2)));
        assert!(!s.remove(n(2)));
        assert!(!s.contains(n(2)));
    }

    #[test]
    fn all_online_starts_full() {
        let s = OnlineSet::all_online(4);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            assert!(s.contains(n(i)));
        }
    }

    #[test]
    fn swap_remove_keeps_indices_consistent() {
        let mut s = OnlineSet::all_online(10);
        s.remove(n(0));
        s.remove(n(5));
        s.remove(n(9));
        for i in [1, 2, 3, 4, 6, 7, 8] {
            assert!(s.contains(n(i)), "node {i} should remain");
            assert!(s.remove(n(i)));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_excludes_and_dedups() {
        let s = OnlineSet::all_online(10);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for _ in 0..100 {
            let sample = s.sample(5, n(3), &mut rng);
            assert_eq!(sample.len(), 5);
            assert!(!sample.contains(&n(3)));
            let mut dedup = sample.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 5);
        }
    }

    #[test]
    fn sample_more_than_population_returns_all_others() {
        let s = OnlineSet::all_online(4);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let sample = s.sample(10, n(0), &mut rng);
        assert_eq!(sample.len(), 3);
        assert!(!sample.contains(&n(0)));
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let s = OnlineSet::all_offline(4);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert!(s.sample(3, n(0), &mut rng).is_empty());
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let s = OnlineSet::all_online(20);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut counts = [0u32; 20];
        let trials = 20_000;
        for _ in 0..trials {
            for node in s.sample(1, n(19), &mut rng) {
                counts[node.index()] += 1;
            }
        }
        assert_eq!(counts[19], 0);
        let expected = trials as f64 / 19.0;
        for (i, &c) in counts.iter().enumerate().take(19) {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.2,
                "node {i}: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn sample_into_matches_sample_and_spends_the_same_draws() {
        let mut s = OnlineSet::all_online(12);
        s.remove(n(4));
        let mut a = ChaCha12Rng::seed_from_u64(5);
        let mut b = ChaCha12Rng::seed_from_u64(5);
        // A dirty, over-sized buffer: `sample_into` must clear it.
        let mut buf = vec![n(0); 32];
        // k = 11 exceeds what rejection sampling reliably fills, so the
        // scan fallback runs too; excluding an offline or out-of-range id
        // leaves every online node eligible.
        for (k, exclude) in [
            (1, n(0)),
            (5, n(3)),
            (11, n(1)),
            (8, n(4)),
            (3, n(99)),
            (0, n(2)),
        ] {
            for _ in 0..50 {
                let fresh = s.sample(k, exclude, &mut a);
                s.sample_into(k, exclude, &mut b, &mut buf);
                assert_eq!(buf, fresh, "k={k} exclude={exclude}");
                assert_eq!(a.get_word_pos(), b.get_word_pos(), "same draws spent");
            }
        }
    }

    #[test]
    fn iter_yields_online_nodes() {
        let mut s = OnlineSet::all_online(3);
        s.remove(n(1));
        let mut ids: Vec<_> = s.iter().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![n(0), n(2)]);
    }
}
