//! Property-based tests for the network fabric.

use bcbpt_net::{
    Block, BlockId, Message, MessageKind, MessageStats, NetConfig, Network, NodeId, RandomPolicy,
    Transaction, TxId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn build(n: usize, seed: u64) -> Network {
    let mut config = NetConfig::test_scale();
    config.num_nodes = n;
    Network::build(config, Box::new(RandomPolicy::new()), seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Outbound caps hold for any seed; edges are symmetric; no self loops.
    #[test]
    fn topology_caps_hold(seed in any::<u64>()) {
        let net = build(40, seed);
        for i in 0..40u32 {
            let node = NodeId::from_index(i);
            prop_assert!(net.links().outbound_count(node) <= 8);
            prop_assert!(!net.links().connected(node, node));
            prop_assert_eq!(
                net.links().inbound_count(node) + net.links().outbound_count(node),
                net.links().degree(node)
            );
        }
        // Edge count equals half the degree sum.
        let degree_sum: usize = (0..40u32)
            .map(|i| net.links().degree(NodeId::from_index(i)))
            .sum();
        prop_assert_eq!(net.links().edge_count() * 2, degree_sum);
    }

    /// Base RTT is symmetric, positive and respects the triangle-free floor.
    #[test]
    fn rtt_symmetric_positive(seed in any::<u64>()) {
        let net = build(20, seed);
        for i in 0..20u32 {
            for j in 0..20u32 {
                let a = NodeId::from_index(i);
                let b = NodeId::from_index(j);
                let rtt = net.base_rtt_ms(a, b);
                prop_assert!(rtt >= 0.0 && rtt.is_finite());
                prop_assert!((rtt - net.base_rtt_ms(b, a)).abs() < 1e-9);
            }
        }
    }

    /// Watched floods: arrival times are at least the injection time, and
    /// announcement deltas never decrease when we give the network longer.
    #[test]
    fn watch_monotone_in_time(seed in any::<u64>()) {
        let mut net = build(30, seed);
        let origin = net.pick_online_node().unwrap();
        net.inject_watched_tx(origin, None).unwrap();
        net.run_for_ms(1_000.0);
        let early = net.watch().unwrap().reached_count();
        net.run_for_ms(59_000.0);
        let late = net.watch().unwrap().reached_count();
        prop_assert!(late >= early, "coverage cannot shrink");
        prop_assert_eq!(late, 29, "eventually everyone");
    }

    /// Traffic accounting: total bytes grow monotonically with messages and
    /// every message carries at least the 24-byte header.
    #[test]
    fn byte_accounting(seed in any::<u64>(), k in 1usize..10) {
        let mut net = build(20, seed);
        for _ in 0..k {
            let origin = net.pick_online_node().unwrap();
            let _ = net.inject_broadcast_tx(origin);
            net.run_for_ms(5_000.0);
        }
        let s = net.stats();
        prop_assert!(s.total_bytes() >= s.total_messages() * 24);
    }

    /// Deterministic replay: identical seeds yield identical traffic and
    /// identical watch results.
    #[test]
    fn replay_identical(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut net = build(25, seed);
            let origin = net.pick_online_node().unwrap();
            net.inject_watched_tx(origin, None).unwrap();
            net.run_for_ms(20_000.0);
            (
                net.stats().total_messages(),
                net.stats().total_bytes(),
                net.take_watch().unwrap().deltas_ms(),
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Mining at any interval yields a consistent ledger: main chain never
    /// exceeds mined count, heights strictly increase along the chain.
    #[test]
    fn ledger_consistency(seed in any::<u64>(), interval in 200.0f64..5_000.0) {
        let mut net = build(25, seed);
        net.enable_mining(interval);
        net.run_for_ms(30_000.0);
        let ledger = net.ledger();
        let chain = ledger.main_chain();
        prop_assert!(chain.len() <= ledger.mined_count());
        for w in chain.windows(2) {
            let a = ledger.get(w[0]).unwrap();
            let b = ledger.get(w[1]).unwrap();
            prop_assert_eq!(b.parent, Some(a.id));
            prop_assert_eq!(b.height, a.height + 1);
        }
        prop_assert!((0.0..=1.0).contains(&ledger.stale_rate()));
    }

    /// Wire sizes are stable: re-encoding the same message reports the same
    /// size, and content growth strictly grows the size.
    #[test]
    fn wire_size_monotone(n in 0usize..50) {
        let ids: Vec<TxId> = (0..n as u64).map(TxId::from_raw).collect();
        let small = Message::Inv { txids: ids.clone() };
        let mut bigger_ids = ids;
        bigger_ids.push(TxId::from_raw(u64::MAX));
        let big = Message::Inv { txids: bigger_ids };
        prop_assert!(big.wire_size_bytes() > small.wire_size_bytes());
        prop_assert_eq!(small.wire_size_bytes(), small.wire_size_bytes());
    }
}

/// The map-backed counters `MessageStats` had before its tables went
/// dense, kept as the reference model: an entry exists iff something was
/// recorded under it, `since` drops zero differences, and the redundancy
/// maps serialize only when non-empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct MapStats {
    counts: BTreeMap<MessageKind, u64>,
    bytes: BTreeMap<MessageKind, u64>,
    withheld: BTreeMap<MessageKind, u64>,
    redundant_counts: BTreeMap<MessageKind, u64>,
    redundant_bytes: BTreeMap<MessageKind, u64>,
}

impl MapStats {
    fn maps(&self) -> [&BTreeMap<MessageKind, u64>; 5] {
        [
            &self.counts,
            &self.bytes,
            &self.withheld,
            &self.redundant_counts,
            &self.redundant_bytes,
        ]
    }

    fn maps_mut(&mut self) -> [&mut BTreeMap<MessageKind, u64>; 5] {
        [
            &mut self.counts,
            &mut self.bytes,
            &mut self.withheld,
            &mut self.redundant_counts,
            &mut self.redundant_bytes,
        ]
    }

    fn merge(&mut self, other: &MapStats) {
        for (mine, theirs) in self.maps_mut().into_iter().zip(other.maps()) {
            for (k, v) in theirs {
                *mine.entry(*k).or_insert(0) += v;
            }
        }
    }

    fn since(&self, baseline: &MapStats) -> MapStats {
        let mut out = MapStats::default();
        for ((diff, mine), base) in out
            .maps_mut()
            .into_iter()
            .zip(self.maps())
            .zip(baseline.maps())
        {
            for (k, v) in mine {
                let d = v.saturating_sub(base.get(k).copied().unwrap_or(0));
                if d > 0 {
                    diff.insert(*k, d);
                }
            }
        }
        out
    }

    fn json(&self) -> String {
        let mut fields = vec![
            format!(
                "\"counts\":{}",
                serde_json::to_string(&self.counts).unwrap()
            ),
            format!("\"bytes\":{}", serde_json::to_string(&self.bytes).unwrap()),
            format!(
                "\"withheld\":{}",
                serde_json::to_string(&self.withheld).unwrap()
            ),
        ];
        if !self.redundant_counts.is_empty() {
            fields.push(format!(
                "\"redundant_counts\":{}",
                serde_json::to_string(&self.redundant_counts).unwrap()
            ));
        }
        if !self.redundant_bytes.is_empty() {
            fields.push(format!(
                "\"redundant_bytes\":{}",
                serde_json::to_string(&self.redundant_bytes).unwrap()
            ));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// One message of every kind, `n` scaling the variable-length ones.
fn message_of(kind: MessageKind, n: u32) -> Message {
    let block = Block {
        id: BlockId::from_raw(1),
        parent: None,
        height: 0,
        miner: NodeId::from_index(0),
        size_bytes: 500 + n,
    };
    let nodes = || (0..n).map(NodeId::from_index).collect();
    let txids = || (0..n).map(|i| TxId::from_raw(u64::from(i))).collect();
    let ids = || (0..n).map(|i| BlockId::from_raw(u64::from(i))).collect();
    match kind {
        MessageKind::Version => Message::Version,
        MessageKind::Verack => Message::Verack,
        MessageKind::Ping => Message::Ping { nonce: 1 },
        MessageKind::Pong => Message::Pong { nonce: 1 },
        MessageKind::GetAddr => Message::GetAddr,
        MessageKind::Addr => Message::Addr { nodes: nodes() },
        MessageKind::Inv => Message::Inv { txids: txids() },
        MessageKind::GetData => Message::GetData { txids: txids() },
        MessageKind::Tx => Message::TxData {
            tx: Transaction::new(TxId::from_raw(1), 100 + n),
        },
        MessageKind::BlockInv => Message::BlockInv { ids: ids() },
        MessageKind::GetBlocks => Message::GetBlocks { ids: ids() },
        MessageKind::Block => Message::BlockData { block },
        MessageKind::Join => Message::Join,
        MessageKind::ClusterList => Message::ClusterList { members: nodes() },
        MessageKind::CmpctBlock => Message::CmpctBlock {
            block,
            short_ids: n,
        },
        MessageKind::GetBlockTxn => Message::GetBlockTxn {
            block: block.id,
            indexes: n,
        },
        MessageKind::BlockTxn => Message::BlockTxn {
            block: block.id,
            tx_count: n,
            tx_bytes: 250 * n,
        },
        MessageKind::CodedPiece => Message::CodedPiece {
            block,
            coeffs: vec![1; n as usize],
            piece_bytes: 64,
        },
        MessageKind::GetPiece => Message::GetPiece {
            block: block.id,
            pieces: n,
        },
    }
}

/// Applies one scripted record to both implementations.
fn record_both(stats: &mut MessageStats, model: &mut MapStats, op: u8, kind: MessageKind, n: u32) {
    let msg = message_of(kind, n);
    match op {
        0..=2 => {
            stats.record(&msg);
            *model.counts.entry(kind).or_insert(0) += 1;
            *model.bytes.entry(kind).or_insert(0) += msg.wire_size_bytes() as u64;
        }
        3 => {
            stats.record_withheld(&msg);
            *model.withheld.entry(kind).or_insert(0) += 1;
        }
        _ => {
            let wasted = u64::from(n) + 1;
            stats.record_redundant(kind, wasted);
            *model.redundant_counts.entry(kind).or_insert(0) += 1;
            *model.redundant_bytes.entry(kind).or_insert(0) += wasted;
        }
    }
}

/// Every observable of `stats` equals the reference model's.
fn assert_matches_model(stats: &MessageStats, model: &MapStats) {
    let get = |m: &BTreeMap<MessageKind, u64>, k| m.get(&k).copied().unwrap_or(0);
    for kind in MessageKind::ALL {
        assert_eq!(stats.count(kind), get(&model.counts, kind));
        assert_eq!(stats.bytes(kind), get(&model.bytes, kind));
        assert_eq!(stats.withheld_count(kind), get(&model.withheld, kind));
        assert_eq!(
            stats.redundant_count(kind),
            get(&model.redundant_counts, kind)
        );
        assert_eq!(
            stats.redundant_bytes(kind),
            get(&model.redundant_bytes, kind)
        );
    }
    assert_eq!(stats.total_messages(), model.counts.values().sum::<u64>());
    assert_eq!(stats.total_bytes(), model.bytes.values().sum::<u64>());
    assert_eq!(
        stats.withheld_messages(),
        model.withheld.values().sum::<u64>()
    );
    assert_eq!(
        stats.redundant_messages(),
        model.redundant_counts.values().sum::<u64>()
    );
    assert_eq!(
        stats.total_redundant_bytes(),
        model.redundant_bytes.values().sum::<u64>()
    );
    let json = serde_json::to_string(stats).unwrap();
    assert_eq!(json, model.json());
    assert_eq!(&serde_json::from_str::<MessageStats>(&json).unwrap(), stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dense counters are the map-backed ones in every observable:
    /// accessors, totals, JSON, `since`, `merge` and `==`.
    #[test]
    fn message_stats_match_the_map_model(
        script in proptest::collection::vec((0u8..5, 0usize..19, 0u32..6), 0..60),
        split in 0usize..60
    ) {
        let mut stats = MessageStats::new();
        let mut model = MapStats::default();
        let mut baseline = (stats.clone(), model.clone());
        for (i, &(op, kind, n)) in script.iter().enumerate() {
            if i == split {
                baseline = (stats.clone(), model.clone());
            }
            record_both(&mut stats, &mut model, op, MessageKind::ALL[kind], n);
        }
        assert_matches_model(&stats, &model);

        let (phase, phase_model) = (stats.since(&baseline.0), model.since(&baseline.1));
        assert_matches_model(&phase, &phase_model);
        // A baseline that is ahead of `self` saturates to nothing.
        assert_matches_model(&baseline.0.since(&stats), &baseline.1.since(&model));

        let mut rebuilt = baseline.clone();
        rebuilt.0.merge(&phase);
        rebuilt.1.merge(&phase_model);
        assert_matches_model(&rebuilt.0, &rebuilt.1);
        prop_assert_eq!(&rebuilt.0, &stats, "merge(baseline, since) rebuilds the whole");

        // Equality agrees with the model's on equal and unequal pairs.
        prop_assert_eq!(phase == stats, phase_model == model);
        prop_assert_eq!(baseline.0 == stats, baseline.1 == model);
    }
}
