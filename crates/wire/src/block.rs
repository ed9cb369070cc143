//! Block format.
//!
//! A block (paper §4.3, Fig. 17 phase 1 step 2) has two parts: the
//! *observation* `V` array used by inter-node linking, and the transaction
//! batch. We add a small header (epoch, proposer) so a retrieved block is
//! self-describing.
//!
//! Transactions carry an origin node, a sequence number and a submission
//! timestamp; the evaluation harness uses these to measure confirmation
//! latency (§6.2) for "local" and "all" transactions (Appendix A.1).
//! A transaction payload may be `Synthetic` — a declared length with no
//! materialized bytes — which the simulator's fluid mode uses to avoid
//! shuffling gigabytes through memory while still charging exact wire bytes.

use crate::codec::{
    payload_len, put_payload_head, put_varint, read_len, read_payload, read_varint, varint_len,
    CodecError, WireDecode, WireEncode,
};
use crate::config::{Epoch, NodeId};
use bytes::Bytes;

/// A client transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tx {
    /// Node through which the transaction entered the system.
    pub origin: NodeId,
    /// Per-origin sequence number (unique together with `origin`).
    pub seq: u64,
    /// Submission time, milliseconds on the driver's clock.
    pub submit_ms: u64,
    /// Payload bytes (real or declared-length synthetic).
    pub payload: TxPayload,
}

/// Transaction payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxPayload {
    Real(Bytes),
    Synthetic { len: u32 },
}

impl TxPayload {
    pub fn len(&self) -> usize {
        match self {
            TxPayload::Real(b) => b.len(),
            TxPayload::Synthetic { len } => *len as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Tx {
    /// A synthetic transaction of `len` payload bytes.
    pub fn synthetic(origin: NodeId, seq: u64, submit_ms: u64, len: u32) -> Tx {
        Tx {
            origin,
            seq,
            submit_ms,
            payload: TxPayload::Synthetic { len },
        }
    }

    /// Globally unique id.
    pub fn id(&self) -> (NodeId, u64) {
        (self.origin, self.seq)
    }
}

/// `varint origin · varint seq · varint submit_ms · payload`.
impl WireEncode for Tx {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.origin.0.into());
        put_varint(buf, self.seq);
        put_varint(buf, self.submit_ms);
        match &self.payload {
            TxPayload::Real(b) => {
                put_payload_head(buf, false, b.len());
                buf.extend_from_slice(b);
            }
            TxPayload::Synthetic { len } => {
                put_payload_head(buf, true, *len as usize);
                buf.extend(std::iter::repeat_n(0u8, *len as usize));
            }
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.origin.0.into())
            + varint_len(self.seq)
            + varint_len(self.submit_ms)
            + payload_len(self.payload.len())
    }
}

impl WireDecode for Tx {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let origin = NodeId(read_varint(buf)?);
        let seq = read_varint(buf)?;
        let submit_ms = read_varint(buf)?;
        let payload = match read_payload(buf)? {
            (true, zeros) => TxPayload::Synthetic {
                len: zeros.len() as u32,
            },
            (false, bytes) => TxPayload::Real(Bytes::copy_from_slice(bytes)),
        };
        Ok(Tx {
            origin,
            seq,
            submit_ms,
            payload,
        })
    }
}

/// Block header: identity plus the inter-node-linking observation array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    pub epoch: Epoch,
    pub proposer: NodeId,
    /// `V[j]` = largest epoch `t` such that node `j`'s VIDs up to `t` have
    /// all Completed at the proposer (0 = none). Length `N`.
    pub v_array: Vec<u64>,
}

/// `varint epoch · varint proposer · varint N · N × varint V[j]`.
impl WireEncode for BlockHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.epoch.0);
        put_varint(buf, self.proposer.0.into());
        put_varint(buf, self.v_array.len() as u64);
        for &v in &self.v_array {
            put_varint(buf, v);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.epoch.0)
            + varint_len(self.proposer.0.into())
            + varint_len(self.v_array.len() as u64)
            + self.v_array.iter().map(|&v| varint_len(v)).sum::<usize>()
    }
}

impl WireDecode for BlockHeader {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let epoch = Epoch(read_varint(buf)?);
        let proposer = NodeId(read_varint(buf)?);
        let v_array = (0..read_len(buf)?)
            .map(|_| read_varint(buf))
            .collect::<Result<_, _>>()?;
        Ok(BlockHeader {
            epoch,
            proposer,
            v_array,
        })
    }
}

/// Body = the transaction batch.
pub type BlockBody = Vec<Tx>;

/// A proposed block: header + transaction batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    pub header: BlockHeader,
    pub body: BlockBody,
}

impl Block {
    /// An empty block (used by DL-Coupled when a node lags on retrieval and
    /// must not propose new transactions; §4.5 "Spam transactions").
    pub fn empty(epoch: Epoch, proposer: NodeId, v_array: Vec<u64>) -> Block {
        Block {
            header: BlockHeader {
                epoch,
                proposer,
                v_array,
            },
            body: Vec::new(),
        }
    }

    /// Sum of transaction payload lengths (the "useful" bytes for
    /// throughput accounting).
    pub fn payload_bytes(&self) -> usize {
        self.body.iter().map(|t| t.payload.len()).sum()
    }

    /// Number of transactions.
    pub fn tx_count(&self) -> usize {
        self.body.len()
    }
}

impl WireEncode for Block {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.header.encode(buf);
        self.body.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.header.encoded_len() + self.body.encoded_len()
    }
}

impl WireDecode for Block {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let header = BlockHeader::decode(buf)?;
        let body = BlockBody::decode(buf)?;
        Ok(Block { header, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        Block {
            header: BlockHeader {
                epoch: Epoch(7),
                proposer: NodeId(2),
                v_array: vec![6, 7, 5, 7],
            },
            body: vec![
                Tx {
                    origin: NodeId(2),
                    seq: 0,
                    submit_ms: 123,
                    payload: TxPayload::Real(Bytes::from(vec![1, 2, 3])),
                },
                Tx::synthetic(NodeId(2), 1, 456, 250),
            ],
        }
    }

    #[test]
    fn block_roundtrip() {
        let b = sample_block();
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.encoded_len());
        assert_eq!(Block::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn synthetic_tx_roundtrips_as_synthetic() {
        let tx = Tx::synthetic(NodeId(1), 9, 0, 100);
        let back = Tx::from_bytes(&tx.to_bytes()).unwrap();
        assert_eq!(back.payload, TxPayload::Synthetic { len: 100 });
    }

    #[test]
    fn payload_accounting() {
        let b = sample_block();
        assert_eq!(b.payload_bytes(), 3 + 250);
        assert_eq!(b.tx_count(), 2);
    }

    #[test]
    fn empty_block() {
        let b = Block::empty(Epoch(1), NodeId(0), vec![0; 4]);
        assert_eq!(b.tx_count(), 0);
        assert_eq!(b.payload_bytes(), 0);
        let back = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn header_size_scales_with_n() {
        // V array costs a varint per node — the price of inter-node
        // linking: one byte while every entry is below 128, plus one for a
        // count past 127.
        let h4 = BlockHeader {
            epoch: Epoch(1),
            proposer: NodeId(0),
            v_array: vec![0; 4],
        };
        let h128 = BlockHeader {
            epoch: Epoch(1),
            proposer: NodeId(0),
            v_array: vec![0; 128],
        };
        assert_eq!(h128.encoded_len() - h4.encoded_len(), 124 + 1);
        let late = BlockHeader {
            v_array: vec![200; 128],
            ..h128.clone()
        };
        assert_eq!(late.encoded_len() - h128.encoded_len(), 128);
    }

    #[test]
    fn truncated_block_rejected() {
        let b = sample_block();
        let bytes = b.to_bytes();
        assert!(Block::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
