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
use dl_wire::codec::{read_u8, WireDecode, WireEncode};
use dl_wire::{Block, ChunkPayload, CodecError, Epoch, NodeId};

use crate::NodeConfig;

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

    /// The epoch this record belongs to.
    pub fn epoch(&self) -> Epoch {
        match self {
            StoreRecord::Chunk { epoch, .. }
            | StoreRecord::Completed { epoch, .. }
            | StoreRecord::Proposed { epoch, .. }
            | StoreRecord::Decided { epoch, .. }
            | StoreRecord::Delivered { epoch, .. }
            | StoreRecord::EpochDelivered { epoch } => *epoch,
        }
    }

    /// True for the record the `EpochBoundary` fsync policy syncs after.
    pub fn is_epoch_boundary(&self) -> bool {
        matches!(self, StoreRecord::EpochDelivered { .. })
    }
}

/// What a log rewrite may drop: the compaction policy for `dl-store`'s
/// segment compaction.
///
/// Chunk custody is by far the bulk of a log (every chunk payload plus its
/// Merkle proof), and it exists only so a restarted node can keep serving
/// retrievals for epochs that have not finished. Once a slot has been
/// *delivered* everywhere below the durable horizon, its chunk is dead
/// weight: `restore` replays it into a server that `gc_epochs` immediately
/// collects. Everything else stays — `Completed` records feed the per-node
/// completion trackers, `Decided`/`Delivered`/`Proposed`/`EpochDelivered`
/// rebuild the cursors, and chunks for *undelivered* slots below the
/// horizon may still be needed by the linking rescue path.
///
/// The floor is the one `Node::gc_epochs` uses: `max(EpochDelivered) −
/// NodeConfig::horizon()`, so compaction never outruns what the engine
/// itself retains.
#[derive(Debug, Clone)]
pub struct CompactionPlan {
    /// Epochs strictly below this are candidates for chunk dropping.
    floor: u64,
    /// `(epoch, proposer)` slots with a durable `Delivered` record.
    delivered: std::collections::BTreeSet<(u64, u16)>,
}

impl CompactionPlan {
    /// Derive the plan from a decoded log and the `NodeConfig` its owner
    /// runs with.
    pub fn build(records: &[StoreRecord], cfg: &NodeConfig) -> CompactionPlan {
        let mut horizon = 0u64;
        let mut delivered = std::collections::BTreeSet::new();
        for rec in records {
            match rec {
                StoreRecord::EpochDelivered { epoch } => horizon = horizon.max(epoch.0),
                StoreRecord::Delivered {
                    epoch, proposer, ..
                } => {
                    delivered.insert((epoch.0, proposer.0));
                }
                _ => {}
            }
        }
        CompactionPlan {
            floor: horizon.saturating_sub(cfg.horizon()),
            delivered,
        }
    }

    /// Epochs strictly below this floor may shed delivered chunks.
    pub fn floor(&self) -> Epoch {
        Epoch(self.floor)
    }

    /// Whether a record must survive the rewrite.
    pub fn keep(&self, rec: &StoreRecord) -> bool {
        match rec {
            StoreRecord::Chunk { epoch, index, .. } => {
                epoch.0 >= self.floor || !self.delivered.contains(&(epoch.0, index.0))
            }
            _ => true,
        }
    }

    /// [`CompactionPlan::keep`] over an encoded record, for drivers that
    /// rewrite logs without decoding them into engine state. Undecodable
    /// bytes are kept verbatim: compaction must never *change* what a
    /// replay sees, only shrink it.
    pub fn keep_raw(&self, bytes: &[u8]) -> bool {
        match StoreRecord::from_bytes(bytes) {
            Ok(rec) => self.keep(&rec),
            Err(_) => true,
        }
    }
}

impl WireEncode for StoreRecord {
    fn encoded_len(&self) -> usize {
        1 + match self {
            StoreRecord::Chunk {
                root,
                proof,
                payload,
                ..
            } => 8 + 2 + root.encoded_len() + proof.encoded_len() + payload.encoded_len(),
            StoreRecord::Completed { root, .. } => 8 + 2 + root.encoded_len(),
            StoreRecord::Proposed { .. } => 8 + 1 + 8,
            StoreRecord::Decided { .. } => 8 + 2 + 1,
            StoreRecord::Delivered { block, .. } => {
                8 + 2 + 1 + 1 + block.as_ref().map_or(0, |b| b.encoded_len())
            }
            StoreRecord::EpochDelivered { .. } => 8,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreRecord::Chunk {
                epoch,
                index,
                root,
                proof,
                payload,
            } => {
                buf.push(Self::TAG_CHUNK);
                epoch.0.encode(buf);
                index.0.encode(buf);
                root.encode(buf);
                proof.encode(buf);
                payload.encode(buf);
            }
            StoreRecord::Completed { epoch, index, root } => {
                buf.push(Self::TAG_COMPLETED);
                epoch.0.encode(buf);
                index.0.encode(buf);
                root.encode(buf);
            }
            StoreRecord::Proposed {
                epoch,
                nonempty,
                payload_bytes,
            } => {
                buf.push(Self::TAG_PROPOSED);
                epoch.0.encode(buf);
                nonempty.encode(buf);
                payload_bytes.encode(buf);
            }
            StoreRecord::Decided {
                epoch,
                index,
                value,
            } => {
                buf.push(Self::TAG_DECIDED);
                epoch.0.encode(buf);
                index.0.encode(buf);
                value.encode(buf);
            }
            StoreRecord::Delivered {
                epoch,
                proposer,
                via_link,
                block,
            } => {
                buf.push(Self::TAG_DELIVERED);
                epoch.0.encode(buf);
                proposer.0.encode(buf);
                via_link.encode(buf);
                match block {
                    Some(b) => {
                        buf.push(1);
                        b.encode(buf);
                    }
                    None => buf.push(0),
                }
            }
            StoreRecord::EpochDelivered { epoch } => {
                buf.push(Self::TAG_EPOCH_DELIVERED);
                epoch.0.encode(buf);
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

    fn cfg_with_lookahead(epoch_lookahead: u64) -> NodeConfig {
        NodeConfig {
            epoch_lookahead,
            ..NodeConfig::new(dl_wire::ClusterConfig::new(4), crate::ProtocolVariant::Dl)
        }
    }

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

    fn chunk(epoch: u64, index: u16) -> StoreRecord {
        StoreRecord::Chunk {
            epoch: Epoch(epoch),
            index: NodeId(index),
            root: Hash::digest(b"root"),
            proof: MerkleProof {
                index: 0,
                leaf_count: 4,
                path: vec![Hash::ZERO; 2],
            },
            payload: ChunkPayload::Real(bytes::Bytes::from_static(b"chunk")),
        }
    }

    #[test]
    fn compaction_drops_only_delivered_chunks_below_the_floor() {
        let records = vec![
            chunk(1, 0),
            StoreRecord::Delivered {
                epoch: Epoch(1),
                proposer: NodeId(0),
                via_link: false,
                block: None,
            },
            chunk(2, 1), // never delivered: a linking-rescue candidate
            chunk(9, 0), // delivered but above the floor
            StoreRecord::Delivered {
                epoch: Epoch(9),
                proposer: NodeId(0),
                via_link: false,
                block: None,
            },
            StoreRecord::EpochDelivered { epoch: Epoch(10) },
        ];
        let plan = CompactionPlan::build(&records, &cfg_with_lookahead(2));
        assert_eq!(plan.floor(), Epoch(8));
        assert!(!plan.keep(&records[0]), "delivered chunk below floor kept");
        assert!(plan.keep(&records[1]), "Delivered record dropped");
        assert!(plan.keep(&records[2]), "undelivered chunk dropped");
        assert!(plan.keep(&records[3]), "chunk above floor dropped");
        assert!(plan.keep(&records[5]), "EpochDelivered dropped");
    }

    #[test]
    fn compaction_of_an_empty_or_young_log_keeps_everything() {
        let records = vec![chunk(1, 0), StoreRecord::EpochDelivered { epoch: Epoch(1) }];
        // Horizon 1, lookahead 64: floor saturates at 0, nothing dropped.
        let plan = CompactionPlan::build(&records, &cfg_with_lookahead(64));
        assert_eq!(plan.floor(), Epoch(0));
        assert!(records.iter().all(|r| plan.keep(r)));
    }

    #[test]
    fn keep_raw_matches_keep_and_preserves_junk() {
        let records = vec![
            chunk(1, 0),
            StoreRecord::Delivered {
                epoch: Epoch(1),
                proposer: NodeId(0),
                via_link: false,
                block: None,
            },
            StoreRecord::EpochDelivered { epoch: Epoch(70) },
        ];
        let plan = CompactionPlan::build(&records, &cfg_with_lookahead(2));
        for rec in &records {
            assert_eq!(plan.keep_raw(&rec.to_bytes()), plan.keep(rec));
        }
        assert!(plan.keep_raw(&[9, 9, 9]), "undecodable bytes dropped");
    }
}
