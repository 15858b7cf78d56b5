//! DNS seed helpers.
//!
//! On first join, a Bitcoin node learns candidate peers from DNS seeds. The
//! paper refines this (§IV.B): seeds should *rank* candidates by geographic
//! proximity, "as the geographic distance in the internet is many times a
//! good indication of topologic distance", and the joining node then orders
//! them by measured ping distance. These helpers implement both the vanilla
//! (random) and proximity-ranked seed behaviour on top of a [`NetView`].

use crate::ids::NodeId;
use crate::msg::{Message, MessageKind};
use crate::policy::NetView;

/// Random seed candidates — vanilla Bitcoin DNS behaviour. Accounts one
/// GETADDR/ADDR exchange.
pub fn random_candidates(view: &mut NetView<'_>, node: NodeId, k: usize) -> Vec<NodeId> {
    let candidates = view.sample_online(k, node);
    account_exchange(view, candidates.len());
    candidates
}

/// Geographically ranked seed candidates (paper §IV.B): sample a wider pool
/// and return the `k` geographically closest, nearest first. Accounts one
/// GETADDR/ADDR exchange.
pub fn geo_ranked_candidates(view: &mut NetView<'_>, node: NodeId, k: usize) -> Vec<NodeId> {
    // Seeds see a larger slice of the address space than they return.
    let pool = view.sample_online(k.saturating_mul(4).max(16), node);
    let mut ranked: Vec<(f64, NodeId)> = pool
        .into_iter()
        .map(|c| (view.geo_distance_km(node, c), c))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are finite"));
    let out: Vec<NodeId> = ranked.into_iter().map(|(_, c)| c).take(k).collect();
    account_exchange(view, out.len());
    out
}

fn account_exchange(view: &mut NetView<'_>, returned: usize) {
    view.count_control(&Message::GetAddr);
    view.count_address_list(MessageKind::Addr, returned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::links::Links;
    use crate::node::NodeMeta;
    use crate::online::OnlineSet;
    use crate::stats::MessageStats;
    use bcbpt_geo::{AccessProfile, GeoPoint, LatencyConfig, LinkLatencyModel, Placement};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn line_meta(n: usize) -> Vec<NodeMeta> {
        // Nodes along a meridian: node i sits i degrees north.
        (0..n)
            .map(|i| NodeMeta {
                placement: Placement {
                    point: GeoPoint::new(i as f64, 0.0).unwrap(),
                    region_index: 0,
                    country: "XX".to_string(),
                },
                access: AccessProfile {
                    access_delay_ms: 0.0,
                },
                verify_factor: 1.0,
                online: true,
            })
            .collect()
    }

    fn with_view<F: FnOnce(&mut NetView<'_>)>(n: usize, f: F) {
        let meta = line_meta(n);
        let links = Links::new(n);
        let online = OnlineSet::all_online(n);
        let latency = LinkLatencyModel::new(LatencyConfig::noiseless());
        let routes = crate::routes::RouteTable::new(0, 0.0);
        let mut stats = MessageStats::new();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
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
    fn random_candidates_exclude_self() {
        with_view(30, |view| {
            let node = NodeId::from_index(0);
            let got = random_candidates(view, node, 8);
            assert_eq!(got.len(), 8);
            assert!(!got.contains(&node));
            assert_eq!(view.stats.count(MessageKind::GetAddr), 1);
            assert_eq!(view.stats.count(MessageKind::Addr), 1);
        });
    }

    #[test]
    fn geo_ranked_returns_nearest_first() {
        with_view(60, |view| {
            let node = NodeId::from_index(0);
            let got = geo_ranked_candidates(view, node, 8);
            assert_eq!(got.len(), 8);
            // Distances must be non-decreasing.
            let d: Vec<f64> = got.iter().map(|&c| view.geo_distance_km(node, c)).collect();
            for w in d.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "not sorted: {d:?}");
            }
            // The pool is 4k=32 of 59 others; nearest returned should be
            // reasonably close to node 0 on the line.
            assert!(d[0] < 2_000.0, "nearest at {} km", d[0]);
        });
    }

    #[test]
    fn geo_ranked_counts_exchange() {
        with_view(30, |view| {
            let node = NodeId::from_index(3);
            let _ = geo_ranked_candidates(view, node, 5);
            assert_eq!(view.stats.count(MessageKind::GetAddr), 1);
            assert_eq!(view.stats.count(MessageKind::Addr), 1);
        });
    }

    #[test]
    fn small_networks_return_fewer() {
        with_view(4, |view| {
            let node = NodeId::from_index(0);
            let got = geo_ranked_candidates(view, node, 8);
            assert_eq!(got.len(), 3);
        });
    }
}
