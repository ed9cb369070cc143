//! The write-ahead record vocabulary for persistent storage.
//!
//! A [`crate::Node`] narrates its durable state transitions through
//! [`crate::EffectSink::persist`] as a stream of [`StoreRecord`]s. A driver
//! that wants crash recovery appends each record to an append-only log
//! (e.g. `dl-store`'s `FileStore`) *before* letting the effects that follow
//! it reach the wire; on restart it replays the log through
//! [`crate::Engine::restore`] and the node resumes from its durable horizon.
//!
//! The records are WAL-ordered at their emission sites: a `Chunk` is
//! persisted before the `GotChunk` acknowledgement is sent, a `Decided`
//! before the `Term` broadcast, a `Delivered` before the block is handed to
//! the application. A driver that fsyncs on every record therefore never
//! un-says anything after a crash; the default `EpochBoundary` policy
//! narrows that to "never un-says a delivered epoch" (the tail since the
//! last boundary may be lost, which costs the restarted node its `f`-budget
//! slot until catch-up completes — the same budget any crash spends).
//!
//! Records use the same hand-written codec as the wire types, so a log is
//! byte-stable across runs and platforms.

use dl_crypto::{Hash, MerkleProof};
use dl_wire::codec::{read_u8, Sink, WireDecode, WireEncode};
use dl_wire::{Block, ChunkPayload, CodecError, Epoch, NodeId};

/// One durable state transition of a node.
///
/// The sequence of records *is* the ledger: replaying them rebuilds the
/// node's VID chunk custody, its BA decisions, and its delivered prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRecord {
    /// We hold our erasure-coded chunk for `(epoch, index)`; persisted
    /// before the `GotChunk` acknowledgement so a restarted node can still
    /// serve retrievals it already vouched for.
    Chunk {
        epoch: Epoch,
        index: NodeId,
        root: Hash,
        proof: MerkleProof,
        payload: ChunkPayload,
    },
    /// VID dispersal for `(epoch, index)` completed locally with `root`.
    Completed {
        epoch: Epoch,
        index: NodeId,
        root: Hash,
    },
    /// We proposed our own block for `epoch`; replayed as a guard against
    /// proposing a *different* block for the same epoch after a restart
    /// (self-equivocation). `nonempty` feeds the linking rescue set,
    /// `payload_bytes` the dispersal window's in-flight byte ledger.
    Proposed {
        epoch: Epoch,
        nonempty: bool,
        payload_bytes: u64,
    },
    /// BA instance `(epoch, index)` decided `value`; persisted before the
    /// `Term` broadcast.
    Decided {
        epoch: Epoch,
        index: NodeId,
        value: bool,
    },
    /// `proposer`'s block reached its position in the total order;
    /// persisted before the block is handed to the application.
    Delivered {
        epoch: Epoch,
        proposer: NodeId,
        via_link: bool,
        block: Option<Block>,
    },
    /// Every committed block of `epoch` has been delivered. This is the
    /// epoch boundary the default fsync policy syncs on.
    EpochDelivered { epoch: Epoch },
}

impl StoreRecord {
    const TAG_CHUNK: u8 = 0;
    const TAG_COMPLETED: u8 = 1;
    const TAG_PROPOSED: u8 = 2;
    const TAG_DECIDED: u8 = 3;
    const TAG_DELIVERED: u8 = 4;
    const TAG_EPOCH_DELIVERED: u8 = 5;

    /// True for the record the `EpochBoundary` fsync policy syncs after.
    pub fn is_epoch_boundary(&self) -> bool {
        matches!(self, StoreRecord::EpochDelivered { .. })
    }
}

impl WireEncode for StoreRecord {
    fn encode_to(&self, out: &mut impl Sink) {
        match self {
            StoreRecord::Chunk {
                epoch,
                index,
                root,
                proof,
                payload,
            } => {
                out.put_u8(Self::TAG_CHUNK);
                epoch.0.encode_to(out);
                index.0.encode_to(out);
                root.encode_to(out);
                proof.encode_to(out);
                payload.encode_to(out);
            }
            StoreRecord::Completed { epoch, index, root } => {
                out.put_u8(Self::TAG_COMPLETED);
                epoch.0.encode_to(out);
                index.0.encode_to(out);
                root.encode_to(out);
            }
            StoreRecord::Proposed {
                epoch,
                nonempty,
                payload_bytes,
            } => {
                out.put_u8(Self::TAG_PROPOSED);
                epoch.0.encode_to(out);
                nonempty.encode_to(out);
                payload_bytes.encode_to(out);
            }
            StoreRecord::Decided {
                epoch,
                index,
                value,
            } => {
                out.put_u8(Self::TAG_DECIDED);
                epoch.0.encode_to(out);
                index.0.encode_to(out);
                value.encode_to(out);
            }
            StoreRecord::Delivered {
                epoch,
                proposer,
                via_link,
                block,
            } => {
                out.put_u8(Self::TAG_DELIVERED);
                epoch.0.encode_to(out);
                proposer.0.encode_to(out);
                via_link.encode_to(out);
                block.is_some().encode_to(out);
                if let Some(b) = block {
                    b.encode_to(out);
                }
            }
            StoreRecord::EpochDelivered { epoch } => {
                out.put_u8(Self::TAG_EPOCH_DELIVERED);
                epoch.0.encode_to(out);
            }
        }
    }
}

impl WireDecode for StoreRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = read_u8(buf)?;
        Ok(match tag {
            Self::TAG_CHUNK => StoreRecord::Chunk {
                epoch: Epoch(u64::decode(buf)?),
                index: NodeId(u16::decode(buf)?),
                root: Hash::decode(buf)?,
                proof: MerkleProof::decode(buf)?,
                payload: ChunkPayload::decode(buf)?,
            },
            Self::TAG_COMPLETED => StoreRecord::Completed {
                epoch: Epoch(u64::decode(buf)?),
                index: NodeId(u16::decode(buf)?),
                root: Hash::decode(buf)?,
            },
            Self::TAG_PROPOSED => StoreRecord::Proposed {
                epoch: Epoch(u64::decode(buf)?),
                nonempty: bool::decode(buf)?,
                payload_bytes: u64::decode(buf)?,
            },
            Self::TAG_DECIDED => StoreRecord::Decided {
                epoch: Epoch(u64::decode(buf)?),
                index: NodeId(u16::decode(buf)?),
                value: bool::decode(buf)?,
            },
            Self::TAG_DELIVERED => StoreRecord::Delivered {
                epoch: Epoch(u64::decode(buf)?),
                proposer: NodeId(u16::decode(buf)?),
                via_link: bool::decode(buf)?,
                block: match read_u8(buf)? {
                    0 => None,
                    1 => Some(Block::decode(buf)?),
                    _ => return Err(CodecError::InvalidValue("block flag")),
                },
            },
            Self::TAG_EPOCH_DELIVERED => StoreRecord::EpochDelivered {
                epoch: Epoch(u64::decode(buf)?),
            },
            _ => return Err(CodecError::InvalidValue("store record tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::{BlockHeader, Tx};

    fn roundtrip(rec: StoreRecord) {
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), rec.encoded_len());
        let back = StoreRecord::from_bytes(&bytes).expect("decode");
        assert_eq!(back, rec);
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let block = Block {
            header: BlockHeader {
                epoch: Epoch(3),
                proposer: NodeId(1),
                v_array: vec![1, 2, 0, 1],
            },
            body: vec![Tx::synthetic(NodeId(1), 7, 3, 64)],
        };
        roundtrip(StoreRecord::Chunk {
            epoch: Epoch(2),
            index: NodeId(3),
            root: Hash::digest(b"root"),
            proof: MerkleProof {
                index: 2,
                leaf_count: 4,
                path: vec![Hash::digest(b"a"), Hash::digest(b"b")],
            },
            payload: ChunkPayload::Real(bytes::Bytes::from(vec![9u8; 33])),
        });
        roundtrip(StoreRecord::Completed {
            epoch: Epoch(2),
            index: NodeId(0),
            root: Hash::digest(b"done"),
        });
        roundtrip(StoreRecord::Proposed {
            epoch: Epoch(5),
            nonempty: true,
            payload_bytes: 150_000,
        });
        roundtrip(StoreRecord::Decided {
            epoch: Epoch(4),
            index: NodeId(2),
            value: true,
        });
        roundtrip(StoreRecord::Delivered {
            epoch: Epoch(3),
            proposer: NodeId(1),
            via_link: false,
            block: Some(block),
        });
        roundtrip(StoreRecord::Delivered {
            epoch: Epoch(3),
            proposer: NodeId(2),
            via_link: true,
            block: None,
        });
        roundtrip(StoreRecord::EpochDelivered { epoch: Epoch(3) });
    }

    #[test]
    fn epoch_boundary_predicate() {
        assert!(StoreRecord::EpochDelivered { epoch: Epoch(1) }.is_epoch_boundary());
        assert!(!StoreRecord::Proposed {
            epoch: Epoch(1),
            nonempty: false,
            payload_bytes: 0,
        }
        .is_epoch_boundary());
    }

    #[test]
    fn junk_tag_is_rejected() {
        assert!(StoreRecord::from_bytes(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }
}
