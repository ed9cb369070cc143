//! Protocol message taxonomy: AVID-M messages (paper Fig. 3/4), Binary
//! Agreement messages, and the envelope that routes them to a per-epoch,
//! per-proposer protocol instance.

use crate::codec::{
    read_len, read_u8, read_varint, take, CodecError, Sink, WireDecode, WireEncode,
};
use crate::config::{Epoch, NodeId};
use crate::frame::FRAME_HEADER_LEN;
use bytes::Bytes;
use dl_crypto::{Hash, MerkleProof};

/// The two traffic classes of §5: dispersal traffic (chunks + every control
/// message) is prioritized over retrieval bulk, and retrieval bulk is
/// served in epoch order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Chunk dispersal, GotChunk/Ready votes, BA messages, and the
    /// retrieval *control* messages (the requests and `Cancel`) —
    /// everything a node needs to participate in agreement or to steer a
    /// retrieval. High priority.
    Dispersal,
    /// `ReturnChunk` and `ReturnBare` bulk for the given epoch: the only
    /// low-priority traffic. Earlier epochs first.
    Retrieval(Epoch),
}

/// Payload of a chunk or a transaction on the wire.
///
/// `Real` carries actual bytes. `Synthetic` is used by the simulator's
/// fluid mode: the payload has a *declared* length (charged by the byte
/// accounting) but no content — a chunk's lives in a shared block store.
/// Encoding a synthetic payload writes `len` zero bytes so `encoded_len` is
/// always exact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChunkPayload {
    Real(Bytes),
    Synthetic { len: u32 },
}

impl ChunkPayload {
    /// Length of the payload, declared or real.
    pub fn len(&self) -> usize {
        match self {
            ChunkPayload::Real(b) => b.len(),
            ChunkPayload::Synthetic { len } => *len as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `tag u8 · varint len · len bytes`: tag 0 for real bytes, 1 for a
/// synthetic payload, whose bytes are zeros.
impl WireEncode for ChunkPayload {
    fn encode_to(&self, out: &mut impl Sink) {
        match self {
            ChunkPayload::Real(b) => {
                out.put_u8(0);
                out.put_varint(b.len() as u64);
                // A dispersal chunk is a window of the erasure coder's
                // arena: a segment sink shares it rather than copying it.
                out.put_shared(b);
            }
            ChunkPayload::Synthetic { len } => {
                out.put_u8(1);
                out.put_varint((*len).into());
                out.put_zeros(*len as usize);
            }
        }
    }
}

impl WireDecode for ChunkPayload {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let synthetic = match read_u8(buf)? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::InvalidValue("payload tag")),
        };
        let len = read_len(buf)?;
        let bytes = take(buf, len)?;
        if !synthetic {
            return Ok(ChunkPayload::Real(Bytes::copy_from_slice(bytes)));
        }
        if bytes.iter().any(|&b| b != 0) {
            return Err(CodecError::InvalidValue("synthetic payload"));
        }
        Ok(ChunkPayload::Synthetic { len: len as u32 })
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
    /// Server broadcast: `Ready` for the root our own `GotChunk` named. That
    /// `GotChunk` went out earlier on every link, so the root crosses each
    /// link once; a receiver reads this as `Ready` for the sender's
    /// `GotChunk` root.
    ReadyAsGot,
    /// Retriever → servers: please send your chunk (Fig. 4), payload only.
    /// The retriever already knows the root and checks the re-encoding.
    RequestChunk,
    /// Retriever → servers: please send your chunk with its root and Merkle
    /// proof — the proven path, for a retriever that does not know the root
    /// or whose bare chunks failed the re-encoding check.
    RequestProven,
    /// Server → retriever: chunk + proof under the completed root, the
    /// answer to [`VidMsg::RequestProven`].
    ReturnChunk {
        root: Hash,
        proof: MerkleProof,
        payload: ChunkPayload,
    },
    /// Server → retriever: the chunk alone, the answer to
    /// [`VidMsg::RequestChunk`]. Its index is the sender's id.
    ReturnBare { payload: ChunkPayload },
    /// Retriever → servers: block decoded, stop sending chunks. This is the
    /// §6.3 optimization ("a node notifies others when it has decoded a
    /// block").
    Cancel,
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

/// Either sub-protocol's message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoMsg {
    Vid(VidMsg),
    Ba(BaMsg),
    Sync(SyncMsg),
}

impl ProtoMsg {
    /// The kind byte, which names the message and, for a vote, its value:
    /// `BVal`, `Aux` and `Term` are 6, 8 and 10 plus the value.
    fn kind(&self) -> u8 {
        match self {
            ProtoMsg::Vid(VidMsg::Chunk { .. }) => 0,
            ProtoMsg::Vid(VidMsg::GotChunk { .. }) => 1,
            ProtoMsg::Vid(VidMsg::Ready { .. }) => 2,
            ProtoMsg::Vid(VidMsg::RequestChunk) => 3,
            ProtoMsg::Vid(VidMsg::ReturnChunk { .. }) => 4,
            ProtoMsg::Vid(VidMsg::Cancel) => 5,
            ProtoMsg::Ba(BaMsg::BVal { value, .. }) => 6 + *value as u8,
            ProtoMsg::Ba(BaMsg::Aux { value, .. }) => 8 + *value as u8,
            ProtoMsg::Ba(BaMsg::Term { value }) => 10 + *value as u8,
            ProtoMsg::Sync(SyncMsg::Request) => 12,
            ProtoMsg::Sync(SyncMsg::Outcome { .. }) => 13,
            ProtoMsg::Vid(VidMsg::ReadyAsGot) => 14,
            ProtoMsg::Vid(VidMsg::RequestProven) => 15,
            ProtoMsg::Vid(VidMsg::ReturnBare { .. }) => 16,
        }
    }
}

/// `kind u8 · fields`: a chunk is `root · proof · payload`, a bare
/// `ReturnBare` its payload, a `GotChunk` or `Ready` its root, a `BVal` or
/// `Aux` its `varint round`, an `Outcome` a bitmap; the other kinds have no
/// fields.
impl WireEncode for ProtoMsg {
    fn encode_to(&self, out: &mut impl Sink) {
        out.put_u8(self.kind());
        match self {
            ProtoMsg::Vid(
                VidMsg::Chunk {
                    root,
                    proof,
                    payload,
                }
                | VidMsg::ReturnChunk {
                    root,
                    proof,
                    payload,
                },
            ) => {
                root.encode_to(out);
                proof.encode_to(out);
                payload.encode_to(out);
            }
            ProtoMsg::Vid(VidMsg::ReturnBare { payload }) => payload.encode_to(out),
            ProtoMsg::Vid(VidMsg::GotChunk { root } | VidMsg::Ready { root }) => {
                root.encode_to(out)
            }
            ProtoMsg::Ba(BaMsg::BVal { round, .. } | BaMsg::Aux { round, .. }) => {
                out.put_varint((*round).into())
            }
            ProtoMsg::Sync(SyncMsg::Outcome { committed }) => put_bitmap(out, committed),
            ProtoMsg::Vid(
                VidMsg::ReadyAsGot | VidMsg::RequestChunk | VidMsg::RequestProven | VidMsg::Cancel,
            )
            | ProtoMsg::Ba(BaMsg::Term { .. })
            | ProtoMsg::Sync(SyncMsg::Request) => {}
        }
    }
}

impl WireDecode for ProtoMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let kind = read_u8(buf)?;
        let value = kind % 2 == 1;
        Ok(match kind {
            0 | 4 => {
                let root = Hash::decode(buf)?;
                let proof = MerkleProof::decode(buf)?;
                let payload = ChunkPayload::decode(buf)?;
                ProtoMsg::Vid(if kind == 0 {
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
                })
            }
            1 => ProtoMsg::Vid(VidMsg::GotChunk {
                root: Hash::decode(buf)?,
            }),
            2 => ProtoMsg::Vid(VidMsg::Ready {
                root: Hash::decode(buf)?,
            }),
            3 => ProtoMsg::Vid(VidMsg::RequestChunk),
            5 => ProtoMsg::Vid(VidMsg::Cancel),
            6 | 7 => ProtoMsg::Ba(BaMsg::BVal {
                round: read_varint(buf)?,
                value,
            }),
            8 | 9 => ProtoMsg::Ba(BaMsg::Aux {
                round: read_varint(buf)?,
                value,
            }),
            10 | 11 => ProtoMsg::Ba(BaMsg::Term { value }),
            12 => ProtoMsg::Sync(SyncMsg::Request),
            13 => ProtoMsg::Sync(SyncMsg::Outcome {
                committed: read_bitmap(buf)?,
            }),
            14 => ProtoMsg::Vid(VidMsg::ReadyAsGot),
            15 => ProtoMsg::Vid(VidMsg::RequestProven),
            16 => ProtoMsg::Vid(VidMsg::ReturnBare {
                payload: ChunkPayload::decode(buf)?,
            }),
            _ => return Err(CodecError::InvalidValue("message kind")),
        })
    }
}

/// `varint len · ⌈len / 8⌉ bytes`, `bits[j]` at bit `j % 8` of byte `j / 8`.
fn put_bitmap(out: &mut impl Sink, bits: &[bool]) {
    out.put_varint(bits.len() as u64);
    for byte in bits.chunks(8) {
        out.put_u8(byte.iter().rev().fold(0u8, |acc, &b| acc << 1 | b as u8));
    }
}

/// The inverse of [`put_bitmap`]; the padding bits past `len` must be zero.
fn read_bitmap(buf: &mut &[u8]) -> Result<Vec<bool>, CodecError> {
    let len = read_len(buf)?;
    let bytes = take(buf, len.div_ceil(8))?;
    if len % 8 != 0 && bytes[len / 8] >> (len % 8) != 0 {
        return Err(CodecError::InvalidValue("bitmap padding"));
    }
    Ok((0..len).map(|j| bytes[j / 8] >> (j % 8) & 1 == 1).collect())
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

    /// Traffic class for prioritization (§5): `ReturnChunk` and `ReturnBare`
    /// bulk is low priority keyed by epoch; everything else rides the
    /// high-priority class. That includes the 8-byte requests and `Cancel`: parked
    /// behind seconds of queued chunks, a request starts its chunk late
    /// and a cancel arrives after the chunk it was meant to stop.
    pub fn class(&self) -> TrafficClass {
        match &self.payload {
            ProtoMsg::Vid(VidMsg::ReturnChunk { .. } | VidMsg::ReturnBare { .. }) => {
                TrafficClass::Retrieval(self.epoch)
            }
            _ => TrafficClass::Dispersal,
        }
    }

    /// Total bytes on the wire including transport framing.
    pub fn wire_size(&self) -> usize {
        self.encoded_len() + FRAME_HEADER_LEN
    }
}

/// `varint epoch · varint index · kind u8 · fields`.
impl WireEncode for Envelope {
    fn encode_to(&self, out: &mut impl Sink) {
        out.put_varint(self.epoch.0);
        out.put_varint(self.index.0.into());
        self.payload.encode_to(out);
    }
}

impl WireDecode for Envelope {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let epoch = Epoch(read_varint(buf)?);
        let index = NodeId(read_varint(buf)?);
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
            VidMsg::ReadyAsGot,
            VidMsg::RequestChunk,
            VidMsg::RequestProven,
            VidMsg::ReturnChunk {
                root,
                proof: proof(),
                payload: ChunkPayload::Real(Bytes::from(vec![7u8; 5])),
            },
            VidMsg::ReturnBare {
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
        assert_eq!(p.encoded_len(), 1 + 2 + 1000);
        assert_eq!(ChunkPayload::from_bytes(&bytes).unwrap(), p);
    }

    /// One envelope of every kind at `(epoch, index)`: votes in `round`,
    /// chunks under `proof` with `len`-byte payloads.
    fn every_kind(
        epoch: u64,
        index: u16,
        round: u16,
        proof: MerkleProof,
        len: usize,
    ) -> Vec<Envelope> {
        let root = Hash::digest(b"root");
        let real = ChunkPayload::Real(Bytes::from(vec![9u8; len]));
        let synthetic = ChunkPayload::Synthetic { len: len as u32 };
        let (e, i) = (Epoch(epoch), NodeId(index));
        let mut envs: Vec<Envelope> = [
            VidMsg::Chunk {
                root,
                proof: proof.clone(),
                payload: real,
            },
            VidMsg::ReturnChunk {
                root,
                proof,
                payload: synthetic.clone(),
            },
            VidMsg::ReturnBare {
                payload: synthetic.clone(),
            },
            VidMsg::ReturnBare {
                payload: ChunkPayload::Real(Bytes::from(vec![5u8; len])),
            },
            VidMsg::GotChunk { root },
            VidMsg::Ready { root },
            VidMsg::ReadyAsGot,
            VidMsg::RequestChunk,
            VidMsg::RequestProven,
            VidMsg::Cancel,
        ]
        .into_iter()
        .map(|m| Envelope::vid(e, i, m))
        .collect();
        for value in [false, true] {
            envs.push(Envelope::ba(e, i, BaMsg::BVal { round, value }));
            envs.push(Envelope::ba(e, i, BaMsg::Aux { round, value }));
            envs.push(Envelope::ba(e, i, BaMsg::Term { value }));
        }
        envs.push(Envelope::sync(e, SyncMsg::Request));
        for bits in [0, 1, 8, 9, 130] {
            let committed = (0..bits).map(|j| j % 3 != 1).collect();
            envs.push(Envelope::sync(e, SyncMsg::Outcome { committed }));
        }
        envs
    }

    #[test]
    fn every_kind_roundtrips_at_the_varint_edges() {
        let proof = |index: u32, leaf_count: u32| MerkleProof {
            index,
            leaf_count,
            path: vec![Hash::digest(b"p"); dl_crypto::merkle::expected_path_len(leaf_count)],
        };
        let mut kinds = std::collections::BTreeSet::new();
        for epoch in [0, 127, 128, 16_383, 16_384, u64::MAX] {
            for round in [0, 127, 128, u16::MAX] {
                for index in [0, 127, 128, u16::MAX] {
                    for env in every_kind(epoch, index, round, proof(0, 1), 0) {
                        kinds.insert(env.payload.kind());
                        roundtrip(env);
                    }
                }
            }
        }
        assert_eq!(kinds.len(), 17, "the envelope kinds");
        for (index, leaf_count) in [(0, 1), (1, 127), (126, 127), (127, 128), (128, 129)] {
            for len in [0, 127, 128, 16_383, 16_384] {
                for env in every_kind(5, 1, 1, proof(index, leaf_count), len) {
                    roundtrip(env);
                }
            }
        }
    }

    /// `bytes` is an envelope encoding only up to its last field, whose
    /// decoding fails with `err`.
    fn rejected(bytes: &[u8], err: CodecError) {
        assert_eq!(Envelope::from_bytes(bytes), Err(err), "{bytes:?}");
    }

    #[test]
    fn only_canonical_in_range_varints_decode() {
        let overlong = CodecError::InvalidValue("overlong varint");
        let overflow = CodecError::InvalidValue("varint overflow");
        // RequestChunk at epoch 0, index 0 is [0, 0, 3].
        assert!(Envelope::from_bytes(&[0, 0, 3]).is_ok());
        rejected(&[0x80, 0x00, 0, 3], overlong.clone());
        rejected(&[0, 0x81, 0x00, 3], overlong.clone());
        // Index 2^16, round 2^16: past u16.
        rejected(&[0, 0x80, 0x80, 0x04, 3], overflow.clone());
        rejected(&[0, 0, 7, 0x80, 0x80, 0x04], overflow.clone());
        // An epoch of 65 bits, and one that never ends.
        rejected(
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 3,
            ],
            overflow.clone(),
        );
        rejected(&[0xff; 12], overflow);
        // u64::MAX itself is fine.
        roundtrip(Envelope::vid(Epoch(u64::MAX), NodeId(0), VidMsg::Cancel));
    }

    #[test]
    fn out_of_range_proofs_padded_bitmaps_and_huge_lengths_are_rejected() {
        let root = Hash::digest(b"r").0;
        // Chunk kind, root, then proof index 4 of 4 leaves.
        let mut chunk = vec![0, 0, 0];
        chunk.extend_from_slice(&root);
        let mut bad_index = chunk.clone();
        bad_index.extend_from_slice(&[4, 4]);
        rejected(&bad_index, CodecError::InvalidValue("merkle proof index"));
        // A leaf count of 0 has no valid index.
        let mut no_leaves = chunk.clone();
        no_leaves.extend_from_slice(&[0, 0]);
        rejected(&no_leaves, CodecError::InvalidValue("merkle proof index"));
        // Proof 0 of 1 leaf (no path), then a payload claiming one byte past
        // MAX_FIELD_LEN: rejected from the length alone, with no bytes after
        // it to back any buffer.
        for tag in [0, 1] {
            let mut huge = chunk.clone();
            huge.extend_from_slice(&[0, 1, tag]);
            huge.put_varint(crate::codec::MAX_FIELD_LEN as u64 + 1);
            rejected(&huge, CodecError::LengthOverflow);
        }
        // A synthetic payload's bytes are zeros.
        let mut synthetic = chunk;
        synthetic.extend_from_slice(&[0, 1, 1, 2, 0, 7]);
        rejected(&synthetic, CodecError::InvalidValue("synthetic payload"));
        // Outcome of 3 bits: 0b101 is fine, a padding bit is not, and a
        // bitmap past MAX_FIELD_LEN bits is rejected from its length.
        assert_eq!(
            Envelope::from_bytes(&[0, 0, 13, 3, 0b101]).unwrap(),
            Envelope::sync(
                Epoch(0),
                SyncMsg::Outcome {
                    committed: vec![true, false, true]
                }
            )
        );
        rejected(
            &[0, 0, 13, 3, 0b1101],
            CodecError::InvalidValue("bitmap padding"),
        );
        let mut huge = vec![0, 0, 13];
        huge.put_varint(u64::MAX);
        rejected(&huge, CodecError::LengthOverflow);
        rejected(&[0, 0, 17], CodecError::InvalidValue("message kind"));
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
        let bare = Envelope::vid(
            Epoch(2),
            NodeId(0),
            VidMsg::ReturnBare {
                payload: ChunkPayload::Synthetic { len: 100 },
            },
        );
        assert_eq!(bare.class(), TrafficClass::Retrieval(Epoch(2)));
        // Retrieval *control* must not queue behind retrieval bulk.
        for ctl in [VidMsg::RequestChunk, VidMsg::RequestProven, VidMsg::Cancel] {
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
        // At epoch < 128 and N ≤ 128 a vote is the 5-byte frame header,
        // one byte each of epoch, index and kind, and one of round.
        let root = Hash::digest(b"r");
        let (e, i) = (Epoch(127), NodeId(127));
        let size = |m: ProtoMsg| {
            Envelope {
                epoch: e,
                index: i,
                payload: m,
            }
            .wire_size()
        };
        for value in [false, true] {
            assert_eq!(size(ProtoMsg::Ba(BaMsg::BVal { round: 1, value })), 9);
            assert_eq!(size(ProtoMsg::Ba(BaMsg::Aux { round: 1, value })), 9);
            assert_eq!(size(ProtoMsg::Ba(BaMsg::Term { value })), 8);
        }
        assert_eq!(size(ProtoMsg::Vid(VidMsg::GotChunk { root })), 40);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::Ready { root })), 40);
        // The root crosses a link once: a `Ready` after our `GotChunk`
        // names none.
        assert_eq!(size(ProtoMsg::Vid(VidMsg::ReadyAsGot)), 8);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::RequestChunk)), 8);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::RequestProven)), 8);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::Cancel)), 8);
        // At N = 32 a proven 50-byte chunk carries a 32-byte root and a
        // five-hash path (1 + 1 + 160 bytes of proof); a bare one, none.
        let payload = ChunkPayload::Real(Bytes::from(vec![1u8; 50]));
        let proof = MerkleProof {
            index: 31,
            leaf_count: 32,
            path: vec![root; 5],
        };
        let proven = ProtoMsg::Vid(VidMsg::ReturnChunk {
            root,
            proof,
            payload: payload.clone(),
        });
        assert_eq!(size(proven), 8 + 32 + 162 + 52);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::ReturnBare { payload })), 8 + 52);
    }

    #[test]
    fn the_new_kinds_decode_strictly() {
        // ReadyAsGot (14) and RequestProven (15) have no fields: a trailing
        // byte is an error, as is a root after them.
        assert_eq!(
            Envelope::from_bytes(&[0, 0, 14]).unwrap(),
            Envelope::vid(Epoch(0), NodeId(0), VidMsg::ReadyAsGot)
        );
        assert_eq!(
            Envelope::from_bytes(&[0, 0, 15]).unwrap(),
            Envelope::vid(Epoch(0), NodeId(0), VidMsg::RequestProven)
        );
        for kind in [14, 15] {
            assert!(Envelope::from_bytes(&[0, 0, kind, 0]).is_err(), "{kind}");
            let mut with_root = vec![0, 0, kind];
            with_root.extend_from_slice(&Hash::digest(b"r").0);
            assert!(Envelope::from_bytes(&with_root).is_err(), "{kind}");
        }
        // ReturnBare (16) is `payload` alone: tag, varint length, bytes.
        assert_eq!(
            Envelope::from_bytes(&[0, 0, 16, 0, 2, 7, 9]).unwrap(),
            Envelope::vid(
                Epoch(0),
                NodeId(0),
                VidMsg::ReturnBare {
                    payload: ChunkPayload::Real(Bytes::from(vec![7, 9])),
                }
            )
        );
        rejected(&[0, 0, 16], CodecError::UnexpectedEnd);
        rejected(&[0, 0, 16, 0, 3, 7, 9], CodecError::UnexpectedEnd);
        assert!(
            Envelope::from_bytes(&[0, 0, 16, 0, 1, 7, 9]).is_err(),
            "trailing byte"
        );
        rejected(
            &[0, 0, 16, 1, 2, 0, 7],
            CodecError::InvalidValue("synthetic payload"),
        );
        rejected(&[0, 0, 16, 2, 0], CodecError::InvalidValue("payload tag"));
        let mut huge = vec![0, 0, 16, 0];
        huge.put_varint(crate::codec::MAX_FIELD_LEN as u64 + 1);
        rejected(&huge, CodecError::LengthOverflow);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Envelope::from_bytes(&[1, 2]).is_err());
        assert!(
            Envelope::from_bytes(&[1, 2, 3, 0]).is_err(),
            "trailing byte"
        );
        assert!(Envelope::from_bytes(&[1, 2, 99]).is_err(), "bad kind");
    }
}
