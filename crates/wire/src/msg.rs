//! Protocol message taxonomy: AVID-M messages (paper Fig. 3/4), Binary
//! Agreement messages, and the envelope that routes them to a per-epoch,
//! per-proposer protocol instance.

use crate::codec::{
    read_len, read_u8, read_varint, take, CodecError, Sink, WireDecode, WireEncode,
};
use crate::config::{Epoch, NodeId};
use crate::frame::frame_header_len;
use bytes::Bytes;
use dl_crypto::{Hash, MerkleProof, Sha256};

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
    /// Server broadcast: "I hold my chunk under root `r`". A batch of them
    /// names a digest in `root` instead ([`got_digest`]): "I hold each
    /// member's chunk under the root you hold it under".
    GotChunk { root: Hash },
    /// Server broadcast: ready to complete dispersal of root `r`.
    Ready { root: Hash },
    /// Server broadcast: `Ready` for the root of our stored chunk, which
    /// our own `GotChunk` named (or, as the proposer, our chunks). That
    /// went out earlier on every link, so the root crosses each link once;
    /// a receiver reads this as `Ready` for the sender's `GotChunk` root,
    /// and one that does not hold that `GotChunk` asks with
    /// [`VidMsg::RootsWanted`].
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
    /// Receiver of a `GotChunk` batch whose digest did not check, or of a
    /// `ReadyAsGot` whose sender's `GotChunk` it does not hold → its sender:
    /// "name your roots for these instances". Answered once per instance
    /// and peer with a plain `GotChunk`, and once with a plain `Ready` once
    /// the sender's `Ready` is out.
    RootsWanted,
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
            ProtoMsg::Vid(VidMsg::RootsWanted) => 17,
        }
    }

    /// Whether one envelope may carry this message for several instances:
    /// the root-less broadcasts, `BVal`, `Aux`, `Term` and `ReadyAsGot`;
    /// `RootsWanted`; and `GotChunk`, whose batch names a digest.
    pub fn batchable(&self) -> bool {
        batchable_kind(self.kind())
    }

    /// Everything after the kind byte: a chunk is `root · proof · payload`,
    /// a bare `ReturnBare` its payload, a `GotChunk` or `Ready` its root, a
    /// `BVal` or `Aux` its `varint round`, an `Outcome` a bitmap; the other
    /// kinds have no fields.
    fn encode_fields(&self, out: &mut impl Sink) {
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
                VidMsg::ReadyAsGot
                | VidMsg::RequestChunk
                | VidMsg::RequestProven
                | VidMsg::Cancel
                | VidMsg::RootsWanted,
            )
            | ProtoMsg::Ba(BaMsg::Term { .. })
            | ProtoMsg::Sync(SyncMsg::Request) => {}
        }
    }

    /// The inverse of [`ProtoMsg::encode_fields`] for a message of `kind`.
    fn decode_fields(kind: u8, buf: &mut &[u8]) -> Result<Self, CodecError> {
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
            17 => ProtoMsg::Vid(VidMsg::RootsWanted),
            _ => return Err(CodecError::InvalidValue("message kind")),
        })
    }
}

/// `kind u8 · fields` (see `ProtoMsg::encode_fields`).
impl WireEncode for ProtoMsg {
    fn encode_to(&self, out: &mut impl Sink) {
        out.put_u8(self.kind());
        self.encode_fields(out);
    }
}

impl WireDecode for ProtoMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let kind = read_u8(buf)?;
        ProtoMsg::decode_fields(kind, buf)
    }
}

/// The kinds of [`ProtoMsg::batchable`]: `GotChunk`, `BVal`, `Aux`,
/// `Term`, `ReadyAsGot` and `RootsWanted`.
fn batchable_kind(kind: u8) -> bool {
    matches!(kind, 1 | 6..=11 | 14 | 17)
}

/// The digest a `GotChunk` batch carries in its `root` field: SHA-256 over
/// a tag, the epoch and each `(member, root)` in member order. A receiver
/// recomputes it from its own roots of the members' chunks; a match means
/// exactly the members' `GotChunk`s under those roots.
pub fn got_digest(epoch: Epoch, members: impl IntoIterator<Item = (NodeId, Hash)>) -> Hash {
    let mut h = Sha256::new();
    h.update(b"dl-got-digest");
    h.update(&epoch.0.to_le_bytes());
    for (member, root) in members {
        h.update(&member.0.to_le_bytes());
        h.update(&root.0);
    }
    Hash(h.finalize())
}

/// Added to a batch's kind byte.
const BATCH_KIND: u8 = 32;

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
///
/// **Batches.** An envelope of a [`ProtoMsg::batchable`] kind may name up
/// to [`Envelope::BATCH_SPAN`] more instances above `index` of the same
/// epoch ([`Envelope::add_member`], [`Envelope::members`]): a node whose
/// instances broadcast the same root-less message in one instant sends
/// each peer one envelope for all of them. A batch says nothing more than
/// its members: it means exactly what the same authenticated sender would
/// mean by sending the payload once per member, so a receiver routes one
/// copy to each member instance and nothing downstream can tell the two
/// apart. A `GotChunk` batch is the one exception in form, not in meaning:
/// its members' roots differ, so it carries their [`got_digest`], and a
/// receiver counts it as the members' `GotChunk`s only once the digest
/// checks against its own roots. The member set lives in what would
/// otherwise be the struct's padding: `size_of::<Envelope>()` stays 112
/// bytes. A batch's `payload` must stay batchable: no other kind has a
/// batch encoding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    pub epoch: Epoch,
    pub index: NodeId,
    pub payload: ProtoMsg,
    /// Bit `j` names instance `index + 1 + j`, little-endian.
    above: [u8; 6],
}

/// The instances an envelope names, `index` first, in increasing order.
#[derive(Clone, Copy, Debug)]
pub struct Members {
    next: u16,
    /// Bit `j` names instance `next + j`.
    bits: u64,
}

impl Iterator for Members {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.bits == 0 {
            return None;
        }
        let skip = self.bits.trailing_zeros();
        let member = self.next + skip as u16;
        // Two shifts: a skip of 63 would leave a shift by 64.
        self.bits = self.bits >> skip >> 1;
        self.next = member.wrapping_add(1);
        Some(NodeId(member))
    }
}

impl Envelope {
    /// Most instances a batch names above its `index`.
    pub const BATCH_SPAN: u16 = 48;

    /// Highest instance a batch may name: member sets are [`NodeSet`]s.
    ///
    /// [`NodeSet`]: crate::NodeSet
    const MAX_MEMBER: u64 = 255;

    /// `payload` for instance `index` of `epoch`, alone.
    pub fn new(epoch: Epoch, index: NodeId, payload: ProtoMsg) -> Envelope {
        Envelope {
            epoch,
            index,
            payload,
            above: [0; 6],
        }
    }

    pub fn vid(epoch: Epoch, index: NodeId, msg: VidMsg) -> Envelope {
        Envelope::new(epoch, index, ProtoMsg::Vid(msg))
    }

    pub fn ba(epoch: Epoch, index: NodeId, msg: BaMsg) -> Envelope {
        Envelope::new(epoch, index, ProtoMsg::Ba(msg))
    }

    /// Catch-up sync message. `epoch` is the from-epoch (for `Request`) or
    /// the described epoch (for `Outcome`); `index` is unused and zero.
    pub fn sync(epoch: Epoch, msg: SyncMsg) -> Envelope {
        Envelope::new(epoch, NodeId(0), ProtoMsg::Sync(msg))
    }

    fn above_bits(&self) -> u64 {
        let [a, b, c, d, e, f] = self.above;
        u64::from_le_bytes([a, b, c, d, e, f, 0, 0])
    }

    /// Name instance `member` too, if the payload is batchable and `member`
    /// lies within [`Envelope::BATCH_SPAN`] above `index` (and below 256).
    /// Returns whether it is now a member.
    pub fn add_member(&mut self, member: NodeId) -> bool {
        let j = u64::from(member.0).wrapping_sub(u64::from(self.index.0) + 1);
        if j >= u64::from(Envelope::BATCH_SPAN)
            || u64::from(member.0) > Envelope::MAX_MEMBER
            || !self.payload.batchable()
        {
            return false;
        }
        let bits = (self.above_bits() | 1 << j).to_le_bytes();
        self.above.copy_from_slice(&bits[..6]);
        true
    }

    /// The instances this envelope is for: `index`, then any other members.
    pub fn members(&self) -> Members {
        Members {
            next: self.index.0,
            bits: self.above_bits() << 1 | 1,
        }
    }

    /// Whether this envelope names more than `index`.
    pub fn is_batch(&self) -> bool {
        self.above != [0; 6]
    }

    /// The highest instance this envelope names.
    pub fn last_member(&self) -> NodeId {
        let span = u64::BITS - self.above_bits().leading_zeros();
        NodeId(self.index.0 + span as u16)
    }

    /// Traffic class for prioritization (§5): `ReturnChunk` and `ReturnBare`
    /// bulk is low priority keyed by epoch; everything else rides the
    /// high-priority class. That includes the 4-byte requests and `Cancel`: parked
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
        let body = self.encoded_len();
        body + frame_header_len(body)
    }
}

/// `varint epoch · varint index · kind u8 · fields`. A batch is
/// `varint epoch · varint index · (kind + 32) · varint len · bitmap ·
/// fields`: bitmap bit `j` (bit `j % 8` of byte `j / 8`) names instance
/// `index + 1 + j`, and bit `len − 1` is set. A `GotChunk` batch's field
/// is its 32-byte [`got_digest`].
impl WireEncode for Envelope {
    fn encode_to(&self, out: &mut impl Sink) {
        out.put_varint(self.epoch.0);
        out.put_varint(self.index.0.into());
        let above = self.above_bits();
        if above == 0 {
            return self.payload.encode_to(out);
        }
        debug_assert!(self.payload.batchable(), "a batch of {:?}", self.payload);
        let len = u64::BITS - above.leading_zeros();
        out.put_u8(BATCH_KIND + self.payload.kind());
        out.put_varint(len.into());
        for byte in 0..len.div_ceil(8) {
            out.put_u8((above >> (8 * byte)) as u8);
        }
        self.payload.encode_fields(out);
    }
}

impl WireDecode for Envelope {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let epoch = Epoch(read_varint(buf)?);
        let index = NodeId(read_varint(buf)?);
        let mut kind = read_u8(buf)?;
        let mut above = 0u64;
        if kind >= BATCH_KIND && batchable_kind(kind - BATCH_KIND) {
            kind -= BATCH_KIND;
            let len: u64 = read_varint(buf)?;
            if len == 0 || len > u64::from(Envelope::BATCH_SPAN) {
                return Err(CodecError::InvalidValue("batch length"));
            }
            let bytes = take(buf, len.div_ceil(8) as usize)?;
            above = bytes
                .iter()
                .rev()
                .fold(0, |acc, &b| acc << 8 | u64::from(b));
            // Bit `len − 1` set, and no padding bit past it.
            if above >> (len - 1) != 1 {
                return Err(CodecError::InvalidValue("batch bitmap"));
            }
            if u64::from(index.0) + len > Envelope::MAX_MEMBER {
                return Err(CodecError::InvalidValue("batch member"));
            }
        }
        let mut env = Envelope::new(epoch, index, ProtoMsg::decode_fields(kind, buf)?);
        env.above.copy_from_slice(&above.to_le_bytes()[..6]);
        Ok(env)
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
            VidMsg::RootsWanted,
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
            VidMsg::RootsWanted,
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
        assert_eq!(kinds.len(), 18, "the envelope kinds");
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
        rejected(&[0, 0, 18], CodecError::InvalidValue("message kind"));
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
        // At epoch < 128 and N ≤ 128 a vote is one byte each of frame
        // header, epoch, index and kind, and one of round; a body of 16
        // bytes or more takes a second header byte.
        let root = Hash::digest(b"r");
        let (e, i) = (Epoch(127), NodeId(127));
        let size = |m: ProtoMsg| Envelope::new(e, i, m).wire_size();
        for value in [false, true] {
            assert_eq!(size(ProtoMsg::Ba(BaMsg::BVal { round: 1, value })), 5);
            assert_eq!(size(ProtoMsg::Ba(BaMsg::Aux { round: 1, value })), 5);
            assert_eq!(size(ProtoMsg::Ba(BaMsg::Term { value })), 4);
        }
        assert_eq!(size(ProtoMsg::Vid(VidMsg::GotChunk { root })), 37);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::Ready { root })), 37);
        // The root crosses a link once: a `Ready` after our `GotChunk`
        // names none.
        assert_eq!(size(ProtoMsg::Vid(VidMsg::ReadyAsGot)), 4);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::RequestChunk)), 4);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::RequestProven)), 4);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::Cancel)), 4);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::RootsWanted)), 4);
        // At N = 32 one batch names every instance: a length byte and four
        // bitmap bytes more than one vote.
        let all_32 = |m: ProtoMsg| {
            let mut env = Envelope::new(e, NodeId(0), m);
            (1..32).for_each(|j| assert!(env.add_member(NodeId(j))));
            env.wire_size()
        };
        assert_eq!(all_32(ProtoMsg::Ba(BaMsg::Term { value: true })), 9);
        assert_eq!(
            all_32(ProtoMsg::Ba(BaMsg::BVal {
                round: 1,
                value: true
            })),
            10
        );
        assert_eq!(all_32(ProtoMsg::Vid(VidMsg::ReadyAsGot)), 9);
        assert_eq!(all_32(ProtoMsg::Vid(VidMsg::RootsWanted)), 9);
        // Every `GotChunk` of an instant under one 32-byte digest: 42 bytes
        // where 31 plain ones take 31 × 37.
        assert_eq!(all_32(ProtoMsg::Vid(VidMsg::GotChunk { root })), 42);
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
        assert_eq!(size(proven), 5 + 32 + 162 + 52);
        assert_eq!(size(ProtoMsg::Vid(VidMsg::ReturnBare { payload })), 5 + 52);
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
        assert_eq!(
            Envelope::from_bytes(&[0, 0, 17]).unwrap(),
            Envelope::vid(Epoch(0), NodeId(0), VidMsg::RootsWanted)
        );
        for kind in [14, 15, 17] {
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

    /// A `what` batch at `(epoch, index)` that also names `more`.
    fn batch(epoch: u64, index: u16, what: ProtoMsg, more: &[u16]) -> Envelope {
        let mut env = Envelope::new(Epoch(epoch), NodeId(index), what);
        for &m in more {
            assert!(env.add_member(NodeId(m)), "{m} joins {index}");
        }
        env
    }

    fn term() -> ProtoMsg {
        ProtoMsg::Ba(BaMsg::Term { value: true })
    }

    #[test]
    fn envelopes_stay_112_bytes() {
        // The member set sits in what was padding. A 32-byte `NodeSet`
        // field made the struct 144 bytes, and `vbw-sat-hb` then ran ≈ 20 %
        // slower in wall time with identical outputs.
        assert_eq!(std::mem::size_of::<Envelope>(), 112);
    }

    #[test]
    fn batches_roundtrip_and_name_their_members() {
        let kinds = [
            ProtoMsg::Ba(BaMsg::BVal {
                round: 300,
                value: false,
            }),
            ProtoMsg::Ba(BaMsg::Aux {
                round: 0,
                value: true,
            }),
            term(),
            ProtoMsg::Vid(VidMsg::ReadyAsGot),
            ProtoMsg::Vid(VidMsg::RootsWanted),
            ProtoMsg::Vid(VidMsg::GotChunk {
                root: Hash::digest(b"digest"),
            }),
        ];
        for what in kinds {
            assert!(what.batchable());
            for (index, more) in [
                (0, vec![1]),
                (0, vec![48]),
                (3, vec![5, 9, 51]),
                (207, (208..=255).collect()),
                (254, vec![255]),
            ] {
                let env = batch(9, index, what.clone(), &more);
                assert!(env.is_batch());
                let members: Vec<u16> = env.members().map(|m| m.0).collect();
                assert_eq!(members, [&[index][..], &more].concat());
                assert_eq!(env.last_member().0, *more.last().unwrap());
                roundtrip(env);
            }
        }
        // A single envelope is a batch of one, in its old bytes.
        let single = Envelope::ba(Epoch(9), NodeId(u16::MAX), BaMsg::Term { value: true });
        assert!(!single.is_batch());
        assert_eq!(single.members().collect::<Vec<_>>(), [NodeId(u16::MAX)]);
        assert_eq!(single.last_member(), NodeId(u16::MAX));
        // Term at epoch 1 for instances 2, 3 and 34: kind 11 + 32, then 32
        // bits of which the first and last are set.
        assert_eq!(
            batch(1, 2, term(), &[3, 34]).to_bytes(),
            [1, 2, 43, 32, 1, 0, 0, 0x80]
        );
    }

    #[test]
    fn only_batchable_kinds_in_span_join_a_batch() {
        let mut env = Envelope::ba(Epoch(1), NodeId(10), BaMsg::Term { value: false });
        for refused in [0, 9, 10, 59, 300] {
            assert!(!env.add_member(NodeId(refused)), "{refused}");
        }
        assert!(env.add_member(NodeId(58)));
        assert!(env.add_member(NodeId(11)));
        // Up to 255: `NodeSet`s hold ids below 256.
        let mut high = Envelope::ba(Epoch(1), NodeId(250), BaMsg::Term { value: false });
        assert!(high.add_member(NodeId(255)));
        assert!(!high.add_member(NodeId(256)));
        let root = Hash::digest(b"r");
        for msg in [VidMsg::GotChunk { root }, VidMsg::RootsWanted] {
            let mut env = Envelope::vid(Epoch(1), NodeId(1), msg);
            assert!(env.add_member(NodeId(2)), "{env:?}");
        }
        for msg in [
            VidMsg::Ready { root },
            VidMsg::RequestChunk,
            VidMsg::Cancel,
            VidMsg::ReturnBare {
                payload: ChunkPayload::Synthetic { len: 1 },
            },
        ] {
            let mut env = Envelope::vid(Epoch(1), NodeId(1), msg);
            assert!(!env.payload.batchable());
            assert!(!env.add_member(NodeId(2)), "{env:?}");
        }
        assert!(!Envelope::sync(Epoch(1), SyncMsg::Request).add_member(NodeId(1)));
    }

    #[test]
    fn malformed_batches_are_rejected() {
        // `[epoch 1, index 2, Term(true) + 32]`, then the length.
        let head = [1u8, 2, 43];
        let with = |tail: &[u8]| [&head[..], tail].concat();
        assert_eq!(
            Envelope::from_bytes(&with(&[1, 1])).unwrap(),
            batch(1, 2, term(), &[3])
        );
        let length = CodecError::InvalidValue("batch length");
        rejected(&with(&[0]), length.clone());
        rejected(&with(&[49, 0, 0, 0, 0, 0, 0, 1]), length.clone());
        let mut huge = with(&[]);
        huge.put_varint(u64::MAX);
        rejected(&huge, length);
        let bitmap = CodecError::InvalidValue("batch bitmap");
        // The last bit clear, then a padding bit set.
        rejected(&with(&[3, 0b011]), bitmap.clone());
        rejected(&with(&[3, 0b1100]), bitmap.clone());
        rejected(&with(&[9, 0x01, 0x03]), bitmap.clone());
        rejected(&with(&[8, 0]), bitmap);
        rejected(&with(&[9, 0xff]), CodecError::UnexpectedEnd);
        // Members up to 255 only: index 207 spans 48 more, 208 cannot.
        let mut widest = vec![0xff; 6];
        widest[5] = 0x80;
        let at = |index: u64| {
            let mut bytes = vec![1];
            bytes.put_varint(index);
            bytes.extend_from_slice(&[43, 48]);
            [bytes, widest.clone()].concat()
        };
        assert_eq!(
            Envelope::from_bytes(&at(207)).unwrap().last_member(),
            NodeId(255)
        );
        rejected(&at(208), CodecError::InvalidValue("batch member"));
        rejected(
            &[1, 0x80, 0x02, 43, 1, 1],
            CodecError::InvalidValue("batch member"),
        );
        // A batch of a kind that may not be batched is no kind at all:
        // `Chunk`, `Ready`, `RequestChunk`, `ReturnChunk`, `Cancel`, the
        // sync kinds, `RequestProven` and `ReturnBare`.
        for kind in [0, 2, 3, 4, 5, 12, 13, 15, 16] {
            let mut bytes = vec![1, 2, BATCH_KIND + kind, 1, 1];
            bytes.extend_from_slice(&Hash::digest(b"r").0);
            rejected(&bytes, CodecError::InvalidValue("message kind"));
        }
        // The fields still decode strictly: a `BVal` batch needs its round.
        rejected(&[1, 2, 38, 1, 1], CodecError::UnexpectedEnd);
    }

    #[test]
    fn malformed_got_chunk_and_roots_wanted_batches_are_rejected() {
        let digest = Hash::digest(b"digest").0;
        // `[epoch 1, index 2, kind + 32]`, then the length and bitmap, then
        // the digest for a `GotChunk` batch.
        for (kind, fields) in [(1, &digest[..]), (17, &[][..])] {
            let at = |index: u64, tail: &[u8]| {
                let mut bytes = vec![1];
                bytes.put_varint(index);
                bytes.push(BATCH_KIND + kind);
                [&bytes[..], tail, fields].concat()
            };
            let what = Envelope::from_bytes(&at(2, &[1, 1])).unwrap();
            assert_eq!(what.members().map(|m| m.0).collect::<Vec<_>>(), [2, 3]);
            roundtrip(what);
            let length = CodecError::InvalidValue("batch length");
            rejected(&at(2, &[0]), length.clone());
            rejected(&at(2, &[49, 0, 0, 0, 0, 0, 0, 1]), length);
            let bitmap = CodecError::InvalidValue("batch bitmap");
            rejected(&at(2, &[3, 0b011]), bitmap.clone());
            rejected(&at(2, &[3, 0b1100]), bitmap);
            rejected(&at(255, &[1, 1]), CodecError::InvalidValue("batch member"));
        }
        // A `GotChunk` batch needs its whole digest; `RootsWanted` has none.
        rejected(&[1, 2, 33, 1, 1], CodecError::UnexpectedEnd);
        rejected(&[1, 2, 33, 1, 1, 0, 0], CodecError::UnexpectedEnd);
        assert!(
            Envelope::from_bytes(&[1, 2, 49, 1, 1, 0]).is_err(),
            "trailing byte"
        );
    }

    #[test]
    fn got_digests_bind_the_epoch_and_every_member_root() {
        let (a, b) = (Hash::digest(b"a"), Hash::digest(b"b"));
        let base = got_digest(Epoch(3), [(NodeId(1), a), (NodeId(2), b)]);
        assert_eq!(base, got_digest(Epoch(3), [(NodeId(1), a), (NodeId(2), b)]));
        for other in [
            got_digest(Epoch(4), [(NodeId(1), a), (NodeId(2), b)]),
            got_digest(Epoch(3), [(NodeId(1), b), (NodeId(2), a)]),
            got_digest(Epoch(3), [(NodeId(1), a), (NodeId(3), b)]),
            got_digest(Epoch(3), [(NodeId(1), a)]),
        ] {
            assert_ne!(base, other);
        }
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
