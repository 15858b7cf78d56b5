//! Wire messages of the simulated Bitcoin P2P protocol.
//!
//! The subset that matters for propagation-delay experiments (paper Fig. 1
//! and §IV): the INV/GETDATA/TX relay exchange, PING/PONG for latency
//! measurement, ADDR/GETADDR for discovery, VERSION/VERACK handshakes, and
//! the BCBPT-specific JOIN/CLUSTERLIST exchange.

use crate::block::{Block, BlockId};
use crate::ids::{NodeId, TxId};
use crate::tx::Transaction;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// Connection handshake, first half.
    Version,
    /// Connection handshake, second half.
    Verack,
    /// Latency probe.
    Ping {
        /// Echo nonce.
        nonce: u64,
    },
    /// Latency probe reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Request for known addresses.
    GetAddr,
    /// Address gossip.
    Addr {
        /// Advertised peers.
        nodes: Vec<NodeId>,
    },
    /// Inventory announcement: "I have these transactions".
    Inv {
        /// Announced transaction ids.
        txids: Vec<TxId>,
    },
    /// Single-transaction inventory announcement — the relay fabric's hot
    /// path announces exactly one transaction per INV, and this variant
    /// carries it inline instead of heap-allocating a one-element vector.
    /// Wire-identical to `Inv` with one entry.
    InvOne {
        /// The announced transaction id.
        txid: TxId,
    },
    /// Request for full transaction data.
    GetData {
        /// Requested transaction ids.
        txids: Vec<TxId>,
    },
    /// Single-transaction data request (allocation-free twin of `GetData`).
    GetDataOne {
        /// The requested transaction id.
        txid: TxId,
    },
    /// Full transaction payload.
    TxData {
        /// The transaction.
        tx: Transaction,
    },
    /// Block inventory announcement.
    BlockInv {
        /// Announced block ids.
        ids: Vec<BlockId>,
    },
    /// Single-block inventory announcement (allocation-free twin of
    /// `BlockInv`).
    BlockInvOne {
        /// The announced block id.
        id: BlockId,
    },
    /// Request for full block data.
    GetBlocks {
        /// Requested block ids.
        ids: Vec<BlockId>,
    },
    /// Single-block data request (allocation-free twin of `GetBlocks`).
    GetBlocksOne {
        /// The requested block id.
        id: BlockId,
    },
    /// Full block payload.
    BlockData {
        /// The block.
        block: Block,
    },
    /// BCBPT: ask the closest node to admit us to its cluster (§IV.B).
    Join,
    /// BCBPT: reply to [`Message::Join`] listing the cluster's members.
    ClusterList {
        /// Members of the responder's cluster.
        members: Vec<NodeId>,
    },
    /// Compact-block announcement (BIP152 high-bandwidth mode): the block
    /// header plus one short id per transaction in the block body.
    CmpctBlock {
        /// The announced block.
        block: Block,
        /// Number of short transaction ids in the announcement.
        short_ids: u32,
    },
    /// Request for the transactions a compact-block receiver is missing.
    GetBlockTxn {
        /// The block whose transactions are requested.
        block: BlockId,
        /// Number of requested transaction indexes.
        indexes: u32,
    },
    /// The missing transactions a [`Message::GetBlockTxn`] asked for.
    BlockTxn {
        /// The block the transactions belong to.
        block: BlockId,
        /// Number of transactions carried.
        tx_count: u32,
        /// Total serialized size of the carried transactions.
        tx_bytes: u32,
    },
    /// One GF(256) random-linear network-coded piece of a chunked block:
    /// the coding-coefficient vector (one byte per chunk) plus the coded
    /// payload.
    CodedPiece {
        /// The block the piece codes over.
        block: Block,
        /// GF(256) coding coefficients, one per chunk.
        coeffs: Vec<u8>,
        /// Size of the coded payload in bytes.
        piece_bytes: u32,
    },
    /// Request for more coded pieces of a block the sender is still
    /// decoding (its decode-rank deficit).
    GetPiece {
        /// The block being decoded.
        block: BlockId,
        /// Number of additional pieces requested.
        pieces: u32,
    },
}

/// Coarse message classification for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// VERSION.
    Version,
    /// VERACK.
    Verack,
    /// PING.
    Ping,
    /// PONG.
    Pong,
    /// GETADDR.
    GetAddr,
    /// ADDR.
    Addr,
    /// INV.
    Inv,
    /// GETDATA.
    GetData,
    /// TX.
    Tx,
    /// Block INV.
    BlockInv,
    /// GETBLOCKS.
    GetBlocks,
    /// BLOCK.
    Block,
    /// JOIN.
    Join,
    /// CLUSTERLIST.
    ClusterList,
    /// CMPCTBLOCK.
    CmpctBlock,
    /// GETBLOCKTXN.
    GetBlockTxn,
    /// BLOCKTXN.
    BlockTxn,
    /// Coded piece.
    CodedPiece,
    /// GETPIECE.
    GetPiece,
}

impl MessageKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [MessageKind; 19] = [
        MessageKind::Version,
        MessageKind::Verack,
        MessageKind::Ping,
        MessageKind::Pong,
        MessageKind::GetAddr,
        MessageKind::Addr,
        MessageKind::Inv,
        MessageKind::GetData,
        MessageKind::Tx,
        MessageKind::BlockInv,
        MessageKind::GetBlocks,
        MessageKind::Block,
        MessageKind::Join,
        MessageKind::ClusterList,
        MessageKind::CmpctBlock,
        MessageKind::GetBlockTxn,
        MessageKind::BlockTxn,
        MessageKind::CodedPiece,
        MessageKind::GetPiece,
    ];
}

// The statistics tables index by `kind as usize`: the discriminants must
// be the positions in `ALL`.
const _: () = {
    let mut i = 0;
    while i < MessageKind::ALL.len() {
        assert!(MessageKind::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::Version => "version",
            MessageKind::Verack => "verack",
            MessageKind::Ping => "ping",
            MessageKind::Pong => "pong",
            MessageKind::GetAddr => "getaddr",
            MessageKind::Addr => "addr",
            MessageKind::Inv => "inv",
            MessageKind::GetData => "getdata",
            MessageKind::Tx => "tx",
            MessageKind::BlockInv => "blockinv",
            MessageKind::GetBlocks => "getblocks",
            MessageKind::Block => "block",
            MessageKind::Join => "join",
            MessageKind::ClusterList => "clusterlist",
            MessageKind::CmpctBlock => "cmpctblock",
            MessageKind::GetBlockTxn => "getblocktxn",
            MessageKind::BlockTxn => "blocktxn",
            MessageKind::CodedPiece => "codedpiece",
            MessageKind::GetPiece => "getpiece",
        };
        f.write_str(s)
    }
}

/// Bitcoin wire overhead: 24-byte header on every message.
const HEADER_BYTES: usize = 24;
/// Bytes per inventory vector entry (type + hash).
pub(crate) const INV_ENTRY_BYTES: usize = 36;
/// Bytes per address entry (time + services + IP + port).
const ADDR_ENTRY_BYTES: usize = 30;
/// Serialized block header (BIP152 `cmpctblock` prefix).
const BLOCK_HEADER_BYTES: usize = 80;
/// Bytes per BIP152 short transaction id.
const SHORT_ID_BYTES: usize = 6;
/// Bytes per differentially-encoded `getblocktxn` index.
const TXN_INDEX_BYTES: usize = 3;

/// Payload size of an address list (ADDR, CLUSTERLIST) of `entries`
/// addresses.
const fn address_list_payload_bytes(entries: usize) -> usize {
    1 + entries * ADDR_ENTRY_BYTES
}

/// Wire size of an address-list message (ADDR, CLUSTERLIST) carrying
/// `entries` addresses — what [`Message::wire_size_bytes`] returns for one.
pub(crate) const fn address_list_wire_bytes(entries: usize) -> usize {
    HEADER_BYTES + address_list_payload_bytes(entries)
}

impl Message {
    /// The statistics kind of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Version => MessageKind::Version,
            Message::Verack => MessageKind::Verack,
            Message::Ping { .. } => MessageKind::Ping,
            Message::Pong { .. } => MessageKind::Pong,
            Message::GetAddr => MessageKind::GetAddr,
            Message::Addr { .. } => MessageKind::Addr,
            Message::Inv { .. } | Message::InvOne { .. } => MessageKind::Inv,
            Message::GetData { .. } | Message::GetDataOne { .. } => MessageKind::GetData,
            Message::TxData { .. } => MessageKind::Tx,
            Message::BlockInv { .. } | Message::BlockInvOne { .. } => MessageKind::BlockInv,
            Message::GetBlocks { .. } | Message::GetBlocksOne { .. } => MessageKind::GetBlocks,
            Message::BlockData { .. } => MessageKind::Block,
            Message::Join => MessageKind::Join,
            Message::ClusterList { .. } => MessageKind::ClusterList,
            Message::CmpctBlock { .. } => MessageKind::CmpctBlock,
            Message::GetBlockTxn { .. } => MessageKind::GetBlockTxn,
            Message::BlockTxn { .. } => MessageKind::BlockTxn,
            Message::CodedPiece { .. } => MessageKind::CodedPiece,
            Message::GetPiece { .. } => MessageKind::GetPiece,
        }
    }

    /// Approximate wire size in bytes, mirroring the real protocol's
    /// framing. Drives bandwidth accounting and the overhead experiment.
    pub fn wire_size_bytes(&self) -> usize {
        HEADER_BYTES
            + match self {
                Message::Version => 86,
                Message::Verack => 0,
                Message::Ping { .. } | Message::Pong { .. } => 8,
                Message::GetAddr => 0,
                Message::Addr { nodes } => address_list_payload_bytes(nodes.len()),
                Message::Inv { txids } | Message::GetData { txids } => {
                    1 + txids.len() * INV_ENTRY_BYTES
                }
                Message::InvOne { .. } | Message::GetDataOne { .. } => 1 + INV_ENTRY_BYTES,
                Message::TxData { tx } => tx.size_bytes as usize,
                Message::BlockInv { ids } | Message::GetBlocks { ids } => {
                    1 + ids.len() * INV_ENTRY_BYTES
                }
                Message::BlockInvOne { .. } | Message::GetBlocksOne { .. } => 1 + INV_ENTRY_BYTES,
                Message::BlockData { block } => block.size_bytes as usize,
                Message::Join => 8,
                Message::ClusterList { members } => address_list_payload_bytes(members.len()),
                Message::CmpctBlock { short_ids, .. } => {
                    BLOCK_HEADER_BYTES + 8 + 1 + *short_ids as usize * SHORT_ID_BYTES
                }
                Message::GetBlockTxn { indexes, .. } => {
                    INV_ENTRY_BYTES + 1 + *indexes as usize * TXN_INDEX_BYTES
                }
                Message::BlockTxn { tx_bytes, .. } => INV_ENTRY_BYTES + 1 + *tx_bytes as usize,
                Message::CodedPiece {
                    coeffs,
                    piece_bytes,
                    ..
                } => BLOCK_HEADER_BYTES + coeffs.len() + *piece_bytes as usize,
                Message::GetPiece { .. } => INV_ENTRY_BYTES + 4,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TxId;

    fn test_block() -> Block {
        Block {
            id: BlockId::from_raw(1),
            parent: None,
            height: 0,
            miner: NodeId::from_index(0),
            size_bytes: 1000,
        }
    }

    #[test]
    fn kind_mapping_is_total() {
        let msgs: Vec<Message> = vec![
            Message::Version,
            Message::Verack,
            Message::Ping { nonce: 1 },
            Message::Pong { nonce: 1 },
            Message::GetAddr,
            Message::Addr { nodes: vec![] },
            Message::Inv { txids: vec![] },
            Message::GetData { txids: vec![] },
            Message::TxData {
                tx: Transaction::new(TxId::from_raw(1), 250),
            },
            Message::BlockInv { ids: vec![] },
            Message::GetBlocks { ids: vec![] },
            Message::BlockData {
                block: Block {
                    id: BlockId::from_raw(1),
                    parent: None,
                    height: 0,
                    miner: NodeId::from_index(0),
                    size_bytes: 1000,
                },
            },
            Message::Join,
            Message::ClusterList { members: vec![] },
            Message::CmpctBlock {
                block: test_block(),
                short_ids: 40,
            },
            Message::GetBlockTxn {
                block: BlockId::from_raw(1),
                indexes: 2,
            },
            Message::BlockTxn {
                block: BlockId::from_raw(1),
                tx_count: 2,
                tx_bytes: 1000,
            },
            Message::CodedPiece {
                block: test_block(),
                coeffs: vec![1, 2, 3],
                piece_bytes: 64,
            },
            Message::GetPiece {
                block: BlockId::from_raw(1),
                pieces: 4,
            },
        ];
        let kinds: Vec<MessageKind> = msgs.iter().map(Message::kind).collect();
        assert_eq!(kinds, MessageKind::ALL.to_vec());
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let inv1 = Message::Inv {
            txids: vec![TxId::from_raw(1)],
        };
        let inv3 = Message::Inv {
            txids: vec![TxId::from_raw(1), TxId::from_raw(2), TxId::from_raw(3)],
        };
        assert_eq!(
            inv3.wire_size_bytes() - inv1.wire_size_bytes(),
            2 * INV_ENTRY_BYTES
        );
        let tx = Message::TxData {
            tx: Transaction::new(TxId::from_raw(1), 500),
        };
        assert_eq!(tx.wire_size_bytes(), HEADER_BYTES + 500);
    }

    #[test]
    fn every_message_has_nonzero_wire_size() {
        assert!(Message::Verack.wire_size_bytes() >= HEADER_BYTES);
        assert!(Message::Ping { nonce: 0 }.wire_size_bytes() > HEADER_BYTES);
    }

    #[test]
    fn one_element_twins_match_their_vec_forms() {
        let txid = TxId::from_raw(7);
        let id = BlockId::from_raw(9);
        let pairs = [
            (Message::Inv { txids: vec![txid] }, Message::InvOne { txid }),
            (
                Message::GetData { txids: vec![txid] },
                Message::GetDataOne { txid },
            ),
            (
                Message::BlockInv { ids: vec![id] },
                Message::BlockInvOne { id },
            ),
            (
                Message::GetBlocks { ids: vec![id] },
                Message::GetBlocksOne { id },
            ),
        ];
        for (vec_form, one_form) in pairs {
            assert_eq!(vec_form.kind(), one_form.kind());
            assert_eq!(vec_form.wire_size_bytes(), one_form.wire_size_bytes());
        }
    }

    #[test]
    fn relay_wire_sizes_scale_with_content() {
        let small = Message::CmpctBlock {
            block: test_block(),
            short_ids: 10,
        };
        let large = Message::CmpctBlock {
            block: test_block(),
            short_ids: 20,
        };
        assert_eq!(
            large.wire_size_bytes() - small.wire_size_bytes(),
            10 * SHORT_ID_BYTES
        );
        // A compact announcement of a 1000-byte block is smaller than the
        // full body; the combined compact exchange stays competitive.
        let full = Message::BlockData {
            block: test_block(),
        };
        assert!(small.wire_size_bytes() < full.wire_size_bytes());

        let txn = Message::BlockTxn {
            block: BlockId::from_raw(1),
            tx_count: 3,
            tx_bytes: 1500,
        };
        assert_eq!(
            txn.wire_size_bytes(),
            HEADER_BYTES + INV_ENTRY_BYTES + 1 + 1500
        );

        let piece = Message::CodedPiece {
            block: test_block(),
            coeffs: vec![0; 16],
            piece_bytes: 63,
        };
        assert_eq!(
            piece.wire_size_bytes(),
            HEADER_BYTES + BLOCK_HEADER_BYTES + 16 + 63
        );
        let pull = Message::GetPiece {
            block: BlockId::from_raw(1),
            pieces: 7,
        };
        assert_eq!(pull.wire_size_bytes(), HEADER_BYTES + INV_ENTRY_BYTES + 4);
    }

    #[test]
    fn relay_messages_round_trip_through_serde() {
        let msgs = vec![
            Message::CmpctBlock {
                block: test_block(),
                short_ids: 40,
            },
            Message::GetBlockTxn {
                block: BlockId::from_raw(9),
                indexes: 2,
            },
            Message::BlockTxn {
                block: BlockId::from_raw(9),
                tx_count: 2,
                tx_bytes: 1000,
            },
            Message::CodedPiece {
                block: test_block(),
                coeffs: vec![7, 0, 255],
                piece_bytes: 64,
            },
            Message::GetPiece {
                block: BlockId::from_raw(9),
                pieces: 4,
            },
        ];
        for msg in msgs {
            let json = serde_json::to_string(&msg).expect("serializes");
            let back: Message = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, msg, "round trip failed for {json}");
        }
    }

    #[test]
    fn kind_display_distinct_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for k in MessageKind::ALL {
            let s = k.to_string();
            assert!(!s.is_empty());
            assert!(seen.insert(s), "duplicate display for {k:?}");
        }
    }
}
