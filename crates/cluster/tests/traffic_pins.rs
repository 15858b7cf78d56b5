//! LBC and BCBPT traffic accounting, pinned.
//!
//! The policies account their ADDR and CLUSTERLIST exchanges by entry count
//! instead of building the lists. These are the per-kind counts and bytes
//! the list-building code recorded for the same seeds (taken from the commit
//! before the change), with and without churn — churn is what drives the
//! rejoin and adopt-into-cluster paths.

use bcbpt_cluster::{BcbptConfig, BcbptPolicy, LbcConfig, LbcPolicy};
use bcbpt_geo::ChurnModel;
use bcbpt_net::{NeighborPolicy, NetConfig, Network};

fn warmed_stats_json(policy: Box<dyn NeighborPolicy>, churn: bool) -> String {
    let mut config = NetConfig::test_scale();
    config.num_nodes = 60;
    if churn {
        config.churn = ChurnModel {
            median_session_ms: 2_000.0,
            session_sigma: 0.8,
            mean_offline_ms: 800.0,
        };
    }
    let mut net = Network::build(config, policy, 4242).unwrap();
    net.warmup_ms(3_000.0);
    serde_json::to_string(net.stats()).unwrap()
}

#[test]
fn lbc_warmup_traffic_is_unchanged() {
    let lbc = || Box::new(LbcPolicy::new(LbcConfig::paper()));
    assert_eq!(
        warmed_stats_json(lbc(), false),
        concat!(
            r#"{"counts":{"Version":480,"Verack":480,"GetAddr":1860,"Addr":1880},"#,
            r#""bytes":{"Version":52800,"Verack":11520,"GetAddr":44640,"Addr":510740},"#,
            r#""withheld":{}}"#
        )
    );
    assert_eq!(
        warmed_stats_json(lbc(), true),
        concat!(
            r#"{"counts":{"Version":1039,"Verack":1039,"GetAddr":1657,"Addr":1724},"#,
            r#""bytes":{"Version":114290,"Verack":24936,"GetAddr":39768,"Addr":468170},"#,
            r#""withheld":{}}"#
        )
    );
}

#[test]
fn bcbpt_warmup_traffic_is_unchanged() {
    let bcbpt = || Box::new(BcbptPolicy::new(BcbptConfig::paper()));
    assert_eq!(
        warmed_stats_json(bcbpt(), false),
        concat!(
            r#"{"counts":{"Version":348,"Verack":348,"Ping":11340,"Pong":11340,"#,
            r#""GetAddr":1860,"Addr":1860,"Join":24,"ClusterList":24},"#,
            r#""bytes":{"Version":38280,"Verack":8352,"Ping":362880,"Pong":362880,"#,
            r#""GetAddr":44640,"Addr":507300,"Join":768,"ClusterList":2070},"#,
            r#""withheld":{}}"#
        )
    );
    assert_eq!(
        warmed_stats_json(bcbpt(), true),
        concat!(
            r#"{"counts":{"Version":580,"Verack":580,"Ping":16270,"Pong":16270,"#,
            r#""GetAddr":1657,"Addr":1657,"Join":40,"ClusterList":40},"#,
            r#""bytes":{"Version":63800,"Verack":13920,"Ping":520640,"Pong":520640,"#,
            r#""GetAddr":39768,"Addr":460465,"Join":1280,"ClusterList":4840},"#,
            r#""withheld":{}}"#
        )
    );
}
