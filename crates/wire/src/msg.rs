//! Protocol message taxonomy: AVID-M messages (paper Fig. 3/4), Binary
//! Agreement messages, and the envelope that routes them to a per-epoch,
//! per-proposer protocol instance.

use crate::codec::{read_u16, read_u32, read_u64, read_u8, CodecError, WireDecode, WireEncode};
use crate::config::{Epoch, NodeId};
use crate::frame::{SegmentBuf, WireEncodeSegmented};
use bytes::Bytes;
use dl_crypto::{Hash, MerkleProof};

/// Bytes added per message by the transport framing (4-byte length prefix +
/// 1-byte traffic-class tag). The simulator and `dl-net` both use this.
pub const FRAME_OVERHEAD: usize = 5;

/// The two traffic classes of §5: dispersal traffic (chunks + every control
/// message) is prioritized over retrieval bulk, and retrieval bulk is
/// served in epoch order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Chunk dispersal, GotChunk/Ready votes, BA messages, and the
    /// retrieval *control* messages (`RequestChunk`, `Cancel`) —
    /// everything a node needs to participate in agreement or to steer a
    /// retrieval. High priority.
    Dispersal,
    /// `ReturnChunk` bulk for the given epoch: the only low-priority
    /// traffic. Earlier epochs first.
    Retrieval(Epoch),
}

/// Payload of a chunk on the wire.
///
/// `Real` carries actual erasure-coded bytes. `Synthetic` is used by the
/// simulator's fluid mode: the chunk has a *declared* length (charged by the
/// byte accounting) but the content lives in a shared block store. Encoding a
/// synthetic payload writes `len` zero bytes so `encoded_len` is always exact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChunkPayload {
    Real(Bytes),
    Synthetic { len: u32 },
}

impl ChunkPayload {
    /// Length of the chunk this payload represents.
    pub fn chunk_len(&self) -> usize {
        match self {
            ChunkPayload::Real(b) => b.len(),
            ChunkPayload::Synthetic { len } => *len as usize,
        }
    }
}

impl WireEncodeSegmented for ChunkPayload {
    fn encode_segments(&self, out: &mut SegmentBuf) {
        match self {
            ChunkPayload::Real(b) => {
                let head = out.head_mut();
                head.push(0);
                (b.len() as u32).encode(head);
                // The payload rides as a shared window — for a dispersal
                // chunk this is the erasure coder's arena, refcounted, not
                // copied.
                out.put_shared(b);
            }
            ChunkPayload::Synthetic { len } => {
                let head = out.head_mut();
                head.push(1);
                len.encode(head);
                // Fluid-mode chunks have no real bytes; the wire image is
                // zeros of the declared length so encoded_len stays exact
                // (written in place — no per-call allocation).
                head.extend(std::iter::repeat_n(0u8, *len as usize));
            }
        }
    }
}

impl WireEncode for ChunkPayload {
    /// Flat path: delegates to [`WireEncodeSegmented::encode_segments`] so
    /// there is exactly one encoding routine to keep correct.
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut seg = SegmentBuf::new();
        self.encode_segments(&mut seg);
        seg.copy_into(buf);
    }
    fn encoded_len(&self) -> usize {
        1 + 4 + self.chunk_len()
    }
}

impl WireDecode for ChunkPayload {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match read_u8(buf)? {
            0 => Ok(ChunkPayload::Real(Bytes::decode(buf)?)),
            1 => {
                let len = read_u32(buf)? as usize;
                crate::codec::read_bytes(buf, len)?;
                Ok(ChunkPayload::Synthetic { len: len as u32 })
            }
            _ => Err(CodecError::InvalidValue("chunk payload tag")),
        }
    }
}

/// AVID-M messages, exactly the message set of the paper's Fig. 3 and Fig. 4.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VidMsg {
    /// Disperser → server `i`: the `i`-th chunk under root `r` plus its
    /// Merkle inclusion proof (Fig. 3, client step 3).
    Chunk {
        root: Hash,
        proof: MerkleProof,
        payload: ChunkPayload,
    },
    /// Server broadcast: "I hold my chunk under root `r`".
    GotChunk { root: Hash },
    /// Server broadcast: ready to complete dispersal of root `r`.
    Ready { root: Hash },
    /// Retriever → servers: please send your chunk (Fig. 4).
    RequestChunk,
    /// Server → retriever: chunk + proof under the completed root.
    ReturnChunk {
        root: Hash,
        proof: MerkleProof,
        payload: ChunkPayload,
    },
    /// Retriever → servers: block decoded, stop sending chunks. This is the
    /// §6.3 optimization ("a node notifies others when it has decoded a
    /// block").
    Cancel,
}

impl VidMsg {
    fn tag(&self) -> u8 {
        match self {
            VidMsg::Chunk { .. } => 0,
            VidMsg::GotChunk { .. } => 1,
            VidMsg::Ready { .. } => 2,
            VidMsg::RequestChunk => 3,
            VidMsg::ReturnChunk { .. } => 4,
            VidMsg::Cancel => 5,
        }
    }
}

impl WireEncodeSegmented for VidMsg {
    fn encode_segments(&self, out: &mut SegmentBuf) {
        out.head_mut().push(self.tag());
        match self {
            VidMsg::Chunk {
                root,
                proof,
                payload,
            }
            | VidMsg::ReturnChunk {
                root,
                proof,
                payload,
            } => {
                let head = out.head_mut();
                root.encode(head);
                proof.encode(head);
                payload.encode_segments(out);
            }
            VidMsg::GotChunk { root } | VidMsg::Ready { root } => root.encode(out.head_mut()),
            VidMsg::RequestChunk | VidMsg::Cancel => {}
        }
    }
}

impl WireEncode for VidMsg {
    /// Flat path: delegates to [`WireEncodeSegmented::encode_segments`].
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut seg = SegmentBuf::new();
        self.encode_segments(&mut seg);
        seg.copy_into(buf);
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            VidMsg::Chunk {
                root,
                proof,
                payload,
            }
            | VidMsg::ReturnChunk {
                root,
                proof,
                payload,
            } => root.encoded_len() + proof.encoded_len() + payload.encoded_len(),
            VidMsg::GotChunk { root } | VidMsg::Ready { root } => root.encoded_len(),
            VidMsg::RequestChunk | VidMsg::Cancel => 0,
        }
    }
}

impl WireDecode for VidMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let tag = read_u8(buf)?;
        Ok(match tag {
            0 | 4 => {
                let root = Hash::decode(buf)?;
                let proof = MerkleProof::decode(buf)?;
                let payload = ChunkPayload::decode(buf)?;
                if tag == 0 {
                    VidMsg::Chunk {
                        root,
                        proof,
                        payload,
                    }
                } else {
                    VidMsg::ReturnChunk {
                        root,
                        proof,
                        payload,
                    }
                }
            }
            1 => VidMsg::GotChunk {
                root: Hash::decode(buf)?,
            },
            2 => VidMsg::Ready {
                root: Hash::decode(buf)?,
            },
            3 => VidMsg::RequestChunk,
            5 => VidMsg::Cancel,
            _ => return Err(CodecError::InvalidValue("vid message tag")),
        })
    }
}

/// Binary Agreement messages (Mostéfaoui–Moumen–Raynal '14 plus the
/// practical termination gadget; see `dl-ba` docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaMsg {
    /// Binary-value broadcast for `round`.
    BVal { round: u16, value: bool },
    /// Auxiliary announcement for `round`.
    Aux { round: u16, value: bool },
    /// "I decided `value`" — lets peers finish without running more rounds.
    Term { value: bool },
}

impl WireEncode for BaMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            BaMsg::BVal { round, value } => {
                buf.push(0);
                round.encode(buf);
                value.encode(buf);
            }
            BaMsg::Aux { round, value } => {
                buf.push(1);
                round.encode(buf);
                value.encode(buf);
            }
            BaMsg::Term { value } => {
                buf.push(2);
                value.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            BaMsg::BVal { .. } | BaMsg::Aux { .. } => 4,
            BaMsg::Term { .. } => 2,
        }
    }
}

impl WireDecode for BaMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match read_u8(buf)? {
            0 => BaMsg::BVal {
                round: read_u16(buf)?,
                value: crate::codec::read_bool(buf)?,
            },
            1 => BaMsg::Aux {
                round: read_u16(buf)?,
                value: crate::codec::read_bool(buf)?,
            },
            2 => BaMsg::Term {
                value: crate::codec::read_bool(buf)?,
            },
            _ => return Err(CodecError::InvalidValue("ba message tag")),
        })
    }
}

/// Catch-up synchronization messages for restart recovery.
///
/// A node that restarts after its retained peers garbage-collected the
/// epochs it missed cannot re-run those BAs (peers have discarded the
/// instances), so it asks peers for the *outcomes* directly: `f+1`
/// identical answers contain at least one correct node, which makes the
/// attested outcome safe to adopt. Block contents then flow through the
/// ordinary retrieval path — sync only transfers the tiny committed-set
/// bit vectors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SyncMsg {
    /// Recovering node → all: "send me epoch outcomes starting at the
    /// envelope's epoch" (my agreement frontier + 1).
    Request,
    /// Peer → recovering node: the committed-set bit vector (`committed[j]`
    /// = BA `j` decided 1) for the envelope's epoch.
    Outcome { committed: Vec<bool> },
}

impl WireEncode for SyncMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SyncMsg::Request => buf.push(0),
            SyncMsg::Outcome { committed } => {
                buf.push(1);
                committed.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            SyncMsg::Request => 1,
            SyncMsg::Outcome { committed } => 1 + committed.encoded_len(),
        }
    }
}

impl WireDecode for SyncMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match read_u8(buf)? {
            0 => SyncMsg::Request,
            1 => SyncMsg::Outcome {
                committed: Vec::<bool>::decode(buf)?,
            },
            _ => return Err(CodecError::InvalidValue("sync message tag")),
        })
    }
}

/// Either sub-protocol's message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoMsg {
    Vid(VidMsg),
    Ba(BaMsg),
    Sync(SyncMsg),
}

impl WireEncodeSegmented for ProtoMsg {
    fn encode_segments(&self, out: &mut SegmentBuf) {
        match self {
            ProtoMsg::Vid(m) => {
                out.head_mut().push(0);
                m.encode_segments(out);
            }
            ProtoMsg::Ba(m) => {
                let head = out.head_mut();
                head.push(1);
                m.encode(head);
            }
            ProtoMsg::Sync(m) => {
                let head = out.head_mut();
                head.push(2);
                m.encode(head);
            }
        }
    }
}

impl WireEncode for ProtoMsg {
    /// Flat path: delegates to [`WireEncodeSegmented::encode_segments`].
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut seg = SegmentBuf::new();
        self.encode_segments(&mut seg);
        seg.copy_into(buf);
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ProtoMsg::Vid(m) => m.encoded_len(),
            ProtoMsg::Ba(m) => m.encoded_len(),
            ProtoMsg::Sync(m) => m.encoded_len(),
        }
    }
}

impl WireDecode for ProtoMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match read_u8(buf)? {
            0 => ProtoMsg::Vid(VidMsg::decode(buf)?),
            1 => ProtoMsg::Ba(BaMsg::decode(buf)?),
            2 => ProtoMsg::Sync(SyncMsg::decode(buf)?),
            _ => return Err(CodecError::InvalidValue("proto message tag")),
        })
    }
}

/// A routed protocol message: epoch `e`, instance owner `index` (the node
/// whose block/BA this instance concerns), and the payload.
///
/// `VID^e_i` and `BA^e_i` of the paper are addressed by `(epoch, index)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    pub epoch: Epoch,
    pub index: NodeId,
    pub payload: ProtoMsg,
}

impl Envelope {
    pub fn vid(epoch: Epoch, index: NodeId, msg: VidMsg) -> Envelope {
        Envelope {
            epoch,
            index,
            payload: ProtoMsg::Vid(msg),
        }
    }

    pub fn ba(epoch: Epoch, index: NodeId, msg: BaMsg) -> Envelope {
        Envelope {
            epoch,
            index,
            payload: ProtoMsg::Ba(msg),
        }
    }

    /// Catch-up sync message. `epoch` is the from-epoch (for `Request`) or
    /// the described epoch (for `Outcome`); `index` is unused and zero.
    pub fn sync(epoch: Epoch, msg: SyncMsg) -> Envelope {
        Envelope {
            epoch,
            index: NodeId(0),
            payload: ProtoMsg::Sync(msg),
        }
    }

    /// Traffic class for prioritization (§5): `ReturnChunk` bulk is low
    /// priority keyed by epoch; everything else rides the high-priority
    /// class. That includes the ~20-byte `RequestChunk` and `Cancel`: parked
    /// behind seconds of queued chunks, a request starts its chunk late
    /// and a cancel arrives after the chunk it was meant to stop.
    pub fn class(&self) -> TrafficClass {
        match &self.payload {
            ProtoMsg::Vid(VidMsg::ReturnChunk { .. }) => TrafficClass::Retrieval(self.epoch),
            _ => TrafficClass::Dispersal,
        }
    }

    /// Total bytes on the wire including transport framing.
    pub fn wire_size(&self) -> usize {
        self.encoded_len() + FRAME_OVERHEAD
    }
}

impl WireEncodeSegmented for Envelope {
    fn encode_segments(&self, out: &mut SegmentBuf) {
        let head = out.head_mut();
        self.epoch.0.encode(head);
        self.index.0.encode(head);
        self.payload.encode_segments(out);
    }
}

impl WireEncode for Envelope {
    /// Flat path: delegates to [`WireEncodeSegmented::encode_segments`].
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut seg = SegmentBuf::new();
        self.encode_segments(&mut seg);
        seg.copy_into(buf);
    }
    fn encoded_len(&self) -> usize {
        8 + 2 + self.payload.encoded_len()
    }
}

impl WireDecode for Envelope {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let epoch = Epoch(read_u64(buf)?);
        let index = NodeId(read_u16(buf)?);
        let payload = ProtoMsg::decode(buf)?;
        Ok(Envelope {
            epoch,
            index,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proof() -> MerkleProof {
        MerkleProof {
            index: 2,
            leaf_count: 8,
            path: vec![Hash::digest(b"a"); 3],
        }
    }

    fn roundtrip(env: Envelope) {
        let bytes = env.to_bytes();
        assert_eq!(bytes.len(), env.encoded_len());
        assert_eq!(Envelope::from_bytes(&bytes).unwrap(), env);
    }

    #[test]
    fn all_vid_messages_roundtrip() {
        let root = Hash::digest(b"root");
        let msgs = vec![
            VidMsg::Chunk {
                root,
                proof: proof(),
                payload: ChunkPayload::Real(Bytes::from(vec![9u8; 100])),
            },
            VidMsg::GotChunk { root },
            VidMsg::Ready { root },
            VidMsg::RequestChunk,
            VidMsg::ReturnChunk {
                root,
                proof: proof(),
                payload: ChunkPayload::Real(Bytes::from(vec![7u8; 5])),
            },
            VidMsg::Cancel,
        ];
        for m in msgs {
            roundtrip(Envelope::vid(Epoch(3), NodeId(1), m));
        }
    }

    #[test]
    fn all_ba_messages_roundtrip() {
        for m in [
            BaMsg::BVal {
                round: 0,
                value: true,
            },
            BaMsg::Aux {
                round: 7,
                value: false,
            },
            BaMsg::Term { value: true },
        ] {
            roundtrip(Envelope::ba(Epoch(9), NodeId(15), m));
        }
    }

    #[test]
    fn sync_messages_roundtrip_and_class_as_dispersal() {
        roundtrip(Envelope::sync(Epoch(12), SyncMsg::Request));
        let outcome = Envelope::sync(
            Epoch(12),
            SyncMsg::Outcome {
                committed: vec![true, false, true, true],
            },
        );
        roundtrip(outcome.clone());
        // Sync rides the dispersal class: outcome vectors are tiny control
        // traffic a recovering node needs before any retrieval.
        assert_eq!(outcome.class(), TrafficClass::Dispersal);
        assert!(outcome.wire_size() < 64);
    }

    #[test]
    fn synthetic_payload_roundtrips_and_sizes() {
        let p = ChunkPayload::Synthetic { len: 1000 };
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.encoded_len());
        assert_eq!(p.encoded_len(), 1 + 4 + 1000);
        assert_eq!(ChunkPayload::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn synthetic_and_real_have_equal_wire_cost() {
        let real = ChunkPayload::Real(Bytes::from(vec![1u8; 512]));
        let synth = ChunkPayload::Synthetic { len: 512 };
        assert_eq!(real.encoded_len(), synth.encoded_len());
    }

    #[test]
    fn traffic_classes() {
        let root = Hash::digest(b"r");
        let disp = Envelope::vid(Epoch(2), NodeId(0), VidMsg::GotChunk { root });
        assert_eq!(disp.class(), TrafficClass::Dispersal);
        let ret = Envelope::vid(
            Epoch(2),
            NodeId(0),
            VidMsg::ReturnChunk {
                root,
                proof: proof(),
                payload: ChunkPayload::Synthetic { len: 100 },
            },
        );
        assert_eq!(ret.class(), TrafficClass::Retrieval(Epoch(2)));
        // Retrieval *control* must not queue behind retrieval bulk.
        for ctl in [VidMsg::RequestChunk, VidMsg::Cancel] {
            let env = Envelope::vid(Epoch(2), NodeId(0), ctl);
            assert_eq!(env.class(), TrafficClass::Dispersal);
        }
        let ba = Envelope::ba(Epoch(2), NodeId(0), BaMsg::Term { value: true });
        assert_eq!(ba.class(), TrafficClass::Dispersal);
    }

    #[test]
    fn retrieval_ordering_by_epoch() {
        // TrafficClass orders Dispersal < Retrieval(e) < Retrieval(e+1):
        // exactly the send priority (§5).
        let mut classes = vec![
            TrafficClass::Retrieval(Epoch(5)),
            TrafficClass::Dispersal,
            TrafficClass::Retrieval(Epoch(2)),
        ];
        classes.sort();
        assert_eq!(
            classes,
            vec![
                TrafficClass::Dispersal,
                TrafficClass::Retrieval(Epoch(2)),
                TrafficClass::Retrieval(Epoch(5)),
            ]
        );
    }

    #[test]
    fn control_messages_are_small() {
        // The design premise: agreement traffic is tiny next to block data.
        let root = Hash::digest(b"r");
        let got = Envelope::vid(Epoch(1), NodeId(0), VidMsg::GotChunk { root });
        assert!(got.wire_size() < 64);
        let bval = Envelope::ba(
            Epoch(1),
            NodeId(0),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        );
        assert!(bval.wire_size() < 32);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Envelope::from_bytes(&[1, 2, 3]).is_err());
        let mut buf = Vec::new();
        1u64.encode(&mut buf);
        2u16.encode(&mut buf);
        buf.push(9); // bad ProtoMsg tag
        assert!(Envelope::from_bytes(&buf).is_err());
    }
}
