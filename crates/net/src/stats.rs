//! Message-traffic accounting.
//!
//! The paper defers evaluating BCBPT's ping-measurement overhead to future
//! work (§IV.A); this reproduction implements that experiment, so the fabric
//! counts every message and byte by kind.

use crate::msg::{address_list_wire_bytes, Message, MessageKind};
use core::fmt;
use serde::{Deserialize, Serialize};

/// One counter per [`MessageKind`], indexed by `kind as usize`.
///
/// `record` runs for every message the fabric sends — ten times per RTT
/// probe — so the counters are a flat table instead of a map. On the wire a
/// table is the map it replaced: an object holding exactly the non-zero
/// kinds, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct KindTable([u64; MessageKind::ALL.len()]);

impl KindTable {
    #[inline]
    fn get(&self, kind: MessageKind) -> u64 {
        self.0[kind as usize]
    }

    #[inline]
    fn add(&mut self, kind: MessageKind, n: u64) {
        self.0[kind as usize] += n;
    }

    fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    fn is_zero(&self) -> bool {
        self.0.iter().all(|&n| n == 0)
    }

    fn merge(&mut self, other: &KindTable) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine += theirs;
        }
    }

    /// `self - baseline` per kind, saturating at zero.
    fn since(&self, baseline: &KindTable) -> KindTable {
        let mut out = *self;
        for (mine, base) in out.0.iter_mut().zip(&baseline.0) {
            *mine = mine.saturating_sub(*base);
        }
        out
    }
}

impl Serialize for KindTable {
    fn to_value(&self) -> serde::Value {
        let entries = MessageKind::ALL
            .iter()
            .zip(&self.0)
            .filter(|(_, &n)| n > 0)
            .map(|(kind, n)| {
                let serde::Value::Str(name) = kind.to_value() else {
                    unreachable!("unit variants serialize as strings")
                };
                (name, n.to_value())
            })
            .collect();
        serde::Value::Map(entries)
    }
}

impl Deserialize for KindTable {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected object of per-kind counters"))?;
        let mut table = KindTable::default();
        for (name, n) in entries {
            let kind = MessageKind::from_value(&serde::Value::Str(name.clone()))?;
            table.0[kind as usize] = u64::from_value(n)?;
        }
        Ok(table)
    }
}

/// Per-kind message and byte counters.
///
/// # Examples
///
/// ```
/// use bcbpt_net::{Message, MessageKind, MessageStats};
///
/// let mut stats = MessageStats::new();
/// stats.record(&Message::Ping { nonce: 1 });
/// stats.record(&Message::Pong { nonce: 1 });
/// assert_eq!(stats.count(MessageKind::Ping), 1);
/// assert_eq!(stats.total_messages(), 2);
/// ```
///
/// Serde is hand-written (not derived) so the two redundancy tables are
/// emitted only when non-zero: outcomes from runs that never record
/// redundancy stay byte-identical to the pre-relay-subsystem format.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageStats {
    counts: KindTable,
    bytes: KindTable,
    /// Messages an in-loop adversary withheld (never put on the wire);
    /// tracked apart from the sent counters above.
    withheld: KindTable,
    /// Deliveries whose payload the receiver already had (duplicate invs,
    /// already-known txs inside a full block body, linearly-dependent coded
    /// pieces). These messages *were* sent — they are a subset of `counts`.
    redundant_counts: KindTable,
    /// Wasted wire bytes corresponding to `redundant_counts`. A partially
    /// wasted message (e.g. a full block body whose txs were mostly known)
    /// contributes only its wasted fraction here.
    redundant_bytes: KindTable,
}

/// Bandwidth-waste summary distilled from a [`MessageStats`]: how many
/// bytes crossed the wire and what fraction of them carried nothing new.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthReport {
    /// Total bytes put on the wire.
    pub bytes_on_wire: u64,
    /// Bytes the receivers already had (redundant deliveries).
    pub redundant_bytes: u64,
    /// `redundant_bytes / bytes_on_wire` (0 when nothing was sent).
    pub waste_ratio: f64,
}

impl fmt::Display for BandwidthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bytes on wire, {} redundant (waste {:.3})",
            self.bytes_on_wire, self.redundant_bytes, self.waste_ratio
        )
    }
}

impl Serialize for MessageStats {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("counts".to_string(), self.counts.to_value()),
            ("bytes".to_string(), self.bytes.to_value()),
            ("withheld".to_string(), self.withheld.to_value()),
        ];
        if !self.redundant_counts.is_zero() {
            entries.push((
                "redundant_counts".to_string(),
                self.redundant_counts.to_value(),
            ));
        }
        if !self.redundant_bytes.is_zero() {
            entries.push((
                "redundant_bytes".to_string(),
                self.redundant_bytes.to_value(),
            ));
        }
        serde::Value::Map(entries)
    }
}

impl Deserialize for MessageStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for MessageStats"))?;
        let optional_table = |key: &str| -> Result<KindTable, serde::Error> {
            match serde::map_get(m, key) {
                serde::Value::Null => Ok(KindTable::default()),
                other => Deserialize::from_value(other),
            }
        };
        Ok(MessageStats {
            counts: Deserialize::from_value(serde::map_get(m, "counts"))?,
            bytes: Deserialize::from_value(serde::map_get(m, "bytes"))?,
            withheld: Deserialize::from_value(serde::map_get(m, "withheld"))?,
            redundant_counts: optional_table("redundant_counts")?,
            redundant_bytes: optional_table("redundant_bytes")?,
        })
    }
}

impl MessageStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message.
    pub fn record(&mut self, msg: &Message) {
        self.record_sized(msg.kind(), msg.wire_size_bytes());
    }

    /// Records one sent address-list message — `kind` is
    /// [`MessageKind::Addr`] or [`MessageKind::ClusterList`] — from the
    /// number of addresses it carries, exactly as [`record`](Self::record)
    /// would for a message holding that many. Callers that only account
    /// the exchange (discovery ticks, the clustering policies) need not
    /// build the list just to have it measured.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not an address-list kind.
    pub fn record_address_list(&mut self, kind: MessageKind, entries: usize) {
        assert!(
            matches!(kind, MessageKind::Addr | MessageKind::ClusterList),
            "{kind} is not an address list"
        );
        self.record_sized(kind, address_list_wire_bytes(entries));
    }

    #[inline]
    fn record_sized(&mut self, kind: MessageKind, wire_bytes: usize) {
        self.counts.add(kind, 1);
        self.bytes.add(kind, wire_bytes as u64);
    }

    /// Records one message an adversary withheld instead of sending.
    pub fn record_withheld(&mut self, msg: &Message) {
        self.withheld.add(msg.kind(), 1);
    }

    /// Records one redundant delivery: a message (already counted by
    /// [`MessageStats::record`]) of which `wasted_bytes` carried data the
    /// receiver already had. `wasted_bytes` may be less than the message's
    /// wire size when only part of the payload was redundant.
    pub fn record_redundant(&mut self, kind: MessageKind, wasted_bytes: u64) {
        self.redundant_counts.add(kind, 1);
        self.redundant_bytes.add(kind, wasted_bytes);
    }

    /// Number of redundant deliveries of `kind`.
    pub fn redundant_count(&self, kind: MessageKind) -> u64 {
        self.redundant_counts.get(kind)
    }

    /// Wasted bytes attributed to `kind`.
    pub fn redundant_bytes(&self, kind: MessageKind) -> u64 {
        self.redundant_bytes.get(kind)
    }

    /// Total redundant deliveries across kinds.
    pub fn redundant_messages(&self) -> u64 {
        self.redundant_counts.total()
    }

    /// Total wasted bytes across kinds.
    pub fn total_redundant_bytes(&self) -> u64 {
        self.redundant_bytes.total()
    }

    /// Distills the counters into a [`BandwidthReport`].
    pub fn bandwidth_report(&self) -> BandwidthReport {
        let bytes_on_wire = self.total_bytes();
        let redundant_bytes = self.total_redundant_bytes();
        let waste_ratio = if bytes_on_wire == 0 {
            0.0
        } else {
            redundant_bytes as f64 / bytes_on_wire as f64
        };
        BandwidthReport {
            bytes_on_wire,
            redundant_bytes,
            waste_ratio,
        }
    }

    /// Number of messages of `kind` an adversary withheld.
    pub fn withheld_count(&self, kind: MessageKind) -> u64 {
        self.withheld.get(kind)
    }

    /// Total messages withheld across kinds.
    pub fn withheld_messages(&self) -> u64 {
        self.withheld.total()
    }

    /// Number of messages of `kind` recorded.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.counts.get(kind)
    }

    /// Bytes of `kind` recorded.
    pub fn bytes(&self, kind: MessageKind) -> u64 {
        self.bytes.get(kind)
    }

    /// Total messages across kinds.
    pub fn total_messages(&self) -> u64 {
        self.counts.total()
    }

    /// Total bytes across kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.total()
    }

    /// Messages spent on latency probing (PING + PONG) — the BCBPT overhead
    /// the paper flags.
    pub fn probe_messages(&self) -> u64 {
        self.count(MessageKind::Ping) + self.count(MessageKind::Pong)
    }

    /// Messages spent on cluster control (JOIN + CLUSTERLIST).
    pub fn cluster_control_messages(&self) -> u64 {
        self.count(MessageKind::Join) + self.count(MessageKind::ClusterList)
    }

    /// Messages spent relaying transactions (INV + GETDATA + TX).
    pub fn relay_messages(&self) -> u64 {
        self.count(MessageKind::Inv)
            + self.count(MessageKind::GetData)
            + self.count(MessageKind::Tx)
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &MessageStats) {
        self.counts.merge(&other.counts);
        self.bytes.merge(&other.bytes);
        self.withheld.merge(&other.withheld);
        self.redundant_counts.merge(&other.redundant_counts);
        self.redundant_bytes.merge(&other.redundant_bytes);
    }

    /// Difference `self - baseline`, saturating at zero — used to isolate
    /// the traffic of one phase.
    #[must_use]
    pub fn since(&self, baseline: &MessageStats) -> MessageStats {
        MessageStats {
            counts: self.counts.since(&baseline.counts),
            bytes: self.bytes.since(&baseline.bytes),
            withheld: self.withheld.since(&baseline.withheld),
            redundant_counts: self.redundant_counts.since(&baseline.redundant_counts),
            redundant_bytes: self.redundant_bytes.since(&baseline.redundant_bytes),
        }
    }
}

impl fmt::Display for MessageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs / {} bytes",
            self.total_messages(),
            self.total_bytes()
        )?;
        for kind in MessageKind::ALL {
            let c = self.count(kind);
            if c > 0 {
                write!(f, " {kind}={c}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TxId;
    use crate::tx::Transaction;

    #[test]
    fn empty_stats_are_zero() {
        let s = MessageStats::new();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.count(MessageKind::Inv), 0);
        assert_eq!(s.bytes(MessageKind::Tx), 0);
    }

    #[test]
    fn record_accumulates_counts_and_bytes() {
        let mut s = MessageStats::new();
        let inv = Message::Inv {
            txids: vec![TxId::from_raw(1)],
        };
        s.record(&inv);
        s.record(&inv);
        assert_eq!(s.count(MessageKind::Inv), 2);
        assert_eq!(s.bytes(MessageKind::Inv), 2 * inv.wire_size_bytes() as u64);
    }

    #[test]
    fn category_counters() {
        let mut s = MessageStats::new();
        s.record(&Message::Ping { nonce: 0 });
        s.record(&Message::Pong { nonce: 0 });
        s.record(&Message::Join);
        s.record(&Message::ClusterList { members: vec![] });
        s.record(&Message::Inv { txids: vec![] });
        s.record(&Message::GetData { txids: vec![] });
        s.record(&Message::TxData {
            tx: Transaction::new(TxId::from_raw(1), 100),
        });
        assert_eq!(s.probe_messages(), 2);
        assert_eq!(s.cluster_control_messages(), 2);
        assert_eq!(s.relay_messages(), 3);
        assert_eq!(s.total_messages(), 7);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = MessageStats::new();
        let mut b = MessageStats::new();
        a.record(&Message::Version);
        b.record(&Message::Version);
        b.record(&Message::Verack);
        a.merge(&b);
        assert_eq!(a.count(MessageKind::Version), 2);
        assert_eq!(a.count(MessageKind::Verack), 1);
    }

    #[test]
    fn since_isolates_a_phase() {
        let mut s = MessageStats::new();
        s.record(&Message::Ping { nonce: 0 });
        let baseline = s.clone();
        s.record(&Message::Ping { nonce: 1 });
        s.record(&Message::Join);
        let phase = s.since(&baseline);
        assert_eq!(phase.count(MessageKind::Ping), 1);
        assert_eq!(phase.count(MessageKind::Join), 1);
        assert_eq!(phase.total_messages(), 2);
    }

    #[test]
    fn withheld_counters_track_merge_and_since() {
        let mut s = MessageStats::new();
        let inv = Message::Inv {
            txids: vec![TxId::from_raw(1)],
        };
        s.record_withheld(&inv);
        assert_eq!(s.withheld_count(MessageKind::Inv), 1);
        assert_eq!(s.withheld_messages(), 1);
        assert_eq!(s.count(MessageKind::Inv), 0, "withheld is not sent");
        let baseline = s.clone();
        s.record_withheld(&inv);
        s.record_withheld(&Message::TxData {
            tx: Transaction::new(TxId::from_raw(2), 100),
        });
        let phase = s.since(&baseline);
        assert_eq!(phase.withheld_messages(), 2);
        let mut merged = MessageStats::new();
        merged.merge(&s);
        merged.merge(&phase);
        assert_eq!(merged.withheld_messages(), 5);
    }

    #[test]
    fn redundant_counters_track_merge_and_since() {
        let mut s = MessageStats::new();
        let inv = Message::InvOne {
            txid: TxId::from_raw(1),
        };
        s.record(&inv);
        s.record(&inv);
        s.record_redundant(MessageKind::Inv, inv.wire_size_bytes() as u64);
        assert_eq!(s.redundant_count(MessageKind::Inv), 1);
        assert_eq!(s.redundant_messages(), 1);
        assert_eq!(s.total_redundant_bytes(), inv.wire_size_bytes() as u64);
        let baseline = s.clone();
        s.record_redundant(MessageKind::Inv, inv.wire_size_bytes() as u64);
        s.record_redundant(MessageKind::Block, 500);
        let phase = s.since(&baseline);
        assert_eq!(phase.redundant_messages(), 2);
        assert_eq!(
            phase.total_redundant_bytes(),
            inv.wire_size_bytes() as u64 + 500
        );
        let mut merged = MessageStats::new();
        merged.merge(&baseline);
        merged.merge(&phase);
        assert_eq!(merged, s, "merge(baseline, since) reconstructs the whole");
    }

    #[test]
    fn bandwidth_report_ratios() {
        let mut s = MessageStats::new();
        assert_eq!(s.bandwidth_report().waste_ratio, 0.0, "empty stats");
        s.record(&Message::TxData {
            tx: Transaction::new(TxId::from_raw(1), 976),
        });
        s.record_redundant(MessageKind::Tx, 250);
        let report = s.bandwidth_report();
        assert_eq!(report.bytes_on_wire, 1000);
        assert_eq!(report.redundant_bytes, 250);
        assert!((report.waste_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn serde_omits_empty_redundancy_maps() {
        let mut s = MessageStats::new();
        s.record(&Message::Version);
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(
            !json.contains("redundant"),
            "legacy stats must not mention redundancy: {json}"
        );
        let back: MessageStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);

        s.record_redundant(MessageKind::Version, 24);
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(json.contains("redundant_counts"));
        assert!(json.contains("redundant_bytes"));
        let back: MessageStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }

    /// The strings the `BTreeMap`-backed counters produced for this exact
    /// script, recorded from the commit before the tables went dense.
    #[test]
    fn json_is_pinned_to_the_map_based_format() {
        use crate::block::BlockId;
        use crate::ids::NodeId;
        let json = |s: &MessageStats| serde_json::to_string(s).expect("serializes");
        let mut s = MessageStats::new();
        assert_eq!(json(&s), r#"{"counts":{},"bytes":{},"withheld":{}}"#);
        s.record(&Message::GetPiece {
            block: BlockId::from_raw(1),
            pieces: 2,
        });
        s.record(&Message::Version);
        s.record(&Message::Ping { nonce: 7 });
        s.record(&Message::Ping { nonce: 8 });
        s.record(&Message::Addr {
            nodes: (1..=3).map(NodeId::from_index).collect(),
        });
        s.record_address_list(MessageKind::ClusterList, 1);
        s.record(&Message::TxData {
            tx: Transaction::new(TxId::from_raw(1), 250),
        });
        s.record_withheld(&Message::InvOne {
            txid: TxId::from_raw(1),
        });
        let legacy = concat!(
            r#"{"counts":{"Version":1,"Ping":2,"Addr":1,"Tx":1,"ClusterList":1,"GetPiece":1},"#,
            r#""bytes":{"Version":110,"Ping":64,"Addr":115,"Tx":274,"ClusterList":55,"GetPiece":64},"#,
            r#""withheld":{"Inv":1}}"#
        );
        assert_eq!(json(&s), legacy);
        assert_eq!(serde_json::from_str::<MessageStats>(legacy).unwrap(), s);
        s.record_redundant(MessageKind::Tx, 274);
        s.record_redundant(MessageKind::Inv, 61);
        s.record_redundant(MessageKind::Inv, 61);
        let waste = format!(
            "{},{}",
            legacy.strip_suffix('}').unwrap(),
            concat!(
                r#""redundant_counts":{"Inv":2,"Tx":1},"#,
                r#""redundant_bytes":{"Inv":122,"Tx":274}}"#
            )
        );
        assert_eq!(json(&s), waste);
        assert_eq!(serde_json::from_str::<MessageStats>(&waste).unwrap(), s);
    }

    #[test]
    fn address_lists_are_sized_like_the_built_message() {
        use crate::ids::NodeId;
        for entries in [0usize, 1, 8, 100] {
            let nodes: Vec<NodeId> = (0..entries as u32).map(NodeId::from_index).collect();
            let mut built = MessageStats::new();
            built.record(&Message::Addr {
                nodes: nodes.clone(),
            });
            built.record(&Message::ClusterList { members: nodes });
            let mut counted = MessageStats::new();
            counted.record_address_list(MessageKind::Addr, entries);
            counted.record_address_list(MessageKind::ClusterList, entries);
            assert_eq!(counted, built, "{entries} entries");
        }
    }

    #[test]
    #[should_panic(expected = "not an address list")]
    fn address_list_accounting_rejects_other_kinds() {
        MessageStats::new().record_address_list(MessageKind::Inv, 1);
    }

    #[test]
    fn display_lists_active_kinds() {
        let mut s = MessageStats::new();
        s.record(&Message::GetAddr);
        let text = s.to_string();
        assert!(text.contains("getaddr=1"));
        assert!(text.contains("1 msgs"));
    }
}
