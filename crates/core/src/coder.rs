//! Bridging the wire-level [`Block`] to a VID coder's block representation.
//!
//! The VID layer disperses an opaque `Coder::Block`; the consensus layer
//! thinks in structured [`Block`]s (header + V array + transactions).
//! [`BlockCoder`] adds the two conversions. `pack` is infallible;
//! `unpack` is not — a Byzantine proposer can disperse bytes that are not a
//! valid block at all, which inter-node linking §4.3 treats as the all-∞
//! observation (footnote 5 of the paper).

use dl_vid::{Coder, RealCoder};
use dl_wire::{Block, ClusterConfig, WireDecode, WireEncode};

/// A [`Coder`] that can also convert between wire blocks and its dispersal
/// representation.
pub trait BlockCoder: Coder {
    /// Serialize a block for dispersal.
    fn pack(&self, block: &Block) -> Self::Block;

    /// Parse a retrieved dispersal back into a block. `None` means the
    /// disperser put ill-formatted bytes on the wire.
    fn unpack(&self, data: &Self::Block) -> Option<Block>;
}

/// The production coder: blocks are serialized with the wire codec and
/// dispersed as real Reed–Solomon chunks under a real Merkle root. The
/// dispersal representation is a shared [`bytes::Bytes`] buffer, so blocks
/// and chunk payloads flow through the data plane without deep copies.
/// Erasure coding and Merkle hashing run on the engine's own thread.
#[derive(Clone, Debug)]
pub struct RealBlockCoder {
    inner: RealCoder,
}

impl RealBlockCoder {
    pub fn new(cluster: &ClusterConfig) -> RealBlockCoder {
        RealBlockCoder {
            inner: RealCoder::new(cluster.n, cluster.f),
        }
    }
}

impl Coder for RealBlockCoder {
    type Block = bytes::Bytes;

    fn data_chunks(&self) -> usize {
        self.inner.data_chunks()
    }
    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }
    fn encode(&self, block: &bytes::Bytes) -> dl_vid::EncodedBlock {
        self.inner.encode(block)
    }
    fn verify(
        &self,
        root: &dl_crypto::Hash,
        proof: &dl_crypto::MerkleProof,
        payload: &dl_wire::ChunkPayload,
    ) -> bool {
        self.inner.verify(root, proof, payload)
    }
    fn decode(
        &self,
        root: &dl_crypto::Hash,
        chunks: &[(u32, dl_wire::ChunkPayload)],
    ) -> dl_vid::Retrieved<bytes::Bytes> {
        self.inner.decode(root, chunks)
    }
}

impl BlockCoder for RealBlockCoder {
    fn pack(&self, block: &Block) -> bytes::Bytes {
        bytes::Bytes::from(block.to_bytes())
    }

    fn unpack(&self, data: &bytes::Bytes) -> Option<Block> {
        Block::from_bytes(data).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::{BlockHeader, Epoch, NodeId, Tx};

    #[test]
    fn pack_unpack_roundtrip() {
        let cluster = ClusterConfig::new(4);
        let coder = RealBlockCoder::new(&cluster);
        let block = Block {
            header: BlockHeader {
                epoch: Epoch(3),
                proposer: NodeId(1),
                v_array: vec![1, 2, 0, 3],
            },
            body: vec![Tx::synthetic(NodeId(1), 0, 5, 64)],
        };
        let packed = coder.pack(&block);
        assert_eq!(coder.unpack(&packed), Some(block));
    }

    #[test]
    fn garbage_unpacks_to_none() {
        let cluster = ClusterConfig::new(4);
        let coder = RealBlockCoder::new(&cluster);
        assert_eq!(coder.unpack(&bytes::Bytes::from(vec![0xde, 0xad])), None);
    }

    #[test]
    fn dispersal_roundtrip_through_vid_coder() {
        let cluster = ClusterConfig::new(7);
        let coder = RealBlockCoder::new(&cluster);
        let block = Block::empty(Epoch(1), NodeId(0), vec![0; 7]);
        let packed = coder.pack(&block);
        let enc = coder.encode(&packed);
        let subset: Vec<(u32, dl_wire::ChunkPayload)> = (2..5u32)
            .map(|i| (i, enc.chunks[i as usize].0.clone()))
            .collect();
        match coder.decode(&enc.root, &subset) {
            dl_vid::Retrieved::Block(data) => assert_eq!(coder.unpack(&data), Some(block)),
            dl_vid::Retrieved::BadUploader => panic!("honest encoding flagged"),
        }
    }
}
