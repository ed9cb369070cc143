//! Fluid-mode block coder: paper-scale simulations without chunk bytes.
//!
//! The discrete-event simulator charges links by `Envelope::wire_size()`,
//! never by materialized bytes — so for *throughput* studies the erasure
//! coder only needs to produce chunks of the right **declared** length,
//! not their contents. [`FluidCoder`] does exactly that with the
//! `ChunkPayload::Synthetic` variant that has been on the wire format
//! since PR 2: a dispersal emits `N` synthetic chunks whose declared
//! length equals the real coder's `chunk_len`, each carrying a proof of
//! the real path depth, so **every message is byte-for-byte the same
//! size as the real coder's** — virtual-time results are directly
//! comparable — while encode/decode cost O(metadata) instead of
//! O(block size). That lets `dl-e2e` push N = 64 clusters and
//! megabyte blocks through the simulator without shuffling gigabytes.
//!
//! Retrieval is resolved through a cluster-shared [`BlockStore`] keyed by
//! the commitment: a simulation-only oracle standing in for the chunk
//! bytes (the *protocol* messages still flow exactly as in Fig. 3/4 —
//! only the payload content is elided). The commitment binds all block
//! *metadata* (header, tx ids, declared lengths), so two different
//! proposals — including an equivocator's pair — always commit to
//! different roots, just like real Merkle roots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dl_core::BlockCoder;
use dl_crypto::{merkle, Hash, MerkleProof, Sha256};
use dl_vid::{Coder, EncodedBlock, Retrieved};
use dl_wire::{Block, ChunkPayload, ClusterConfig, WireEncode};

/// The cluster-wide oracle mapping commitments to dispersed blocks.
/// Shared by every [`FluidCoder`] of one simulation.
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    blocks: Arc<Mutex<BTreeMap<Hash, Block>>>,
}

impl BlockStore {
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    /// Number of distinct dispersals recorded (diagnostics).
    pub fn len(&self) -> usize {
        self.blocks.lock().expect("block store lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The fluid-mode [`Coder`]: declared-length synthetic chunks, an oracle
/// store instead of decode, wire sizes identical to [`dl_vid::RealCoder`].
#[derive(Clone, Debug)]
pub struct FluidCoder {
    n: usize,
    k: usize,
    store: BlockStore,
}

impl FluidCoder {
    /// Coder for `cluster`, resolving retrievals through `store` (every
    /// node of one simulation must share the same store).
    pub fn new(cluster: &ClusterConfig, store: BlockStore) -> FluidCoder {
        FluidCoder {
            n: cluster.n,
            k: cluster.n - 2 * cluster.f,
            store,
        }
    }

    /// The commitment: a digest over the block *metadata* (everything but
    /// payload bytes, which fluid mode does not materialize). Distinct
    /// proposals always differ in metadata — epoch, proposer, V array, or
    /// the tx ids/lengths — so distinct blocks get distinct roots.
    fn commitment(block: &Block) -> Hash {
        let mut h = Sha256::new();
        h.update(&block.header.epoch.0.to_le_bytes());
        h.update(&block.header.proposer.0.to_le_bytes());
        for v in &block.header.v_array {
            h.update(&v.to_le_bytes());
        }
        for tx in &block.body {
            h.update(&tx.origin.0.to_le_bytes());
            h.update(&tx.seq.to_le_bytes());
            h.update(&tx.submit_ms.to_le_bytes());
            h.update(&(tx.payload.len() as u64).to_le_bytes());
        }
        Hash(h.finalize())
    }

    /// Declared per-chunk length: the real coder's `chunk_len` over the
    /// block's exact wire length.
    fn shard_len(&self, block: &Block) -> usize {
        (block.encoded_len() + 4).div_ceil(self.k).max(1)
    }
}

impl Coder for FluidCoder {
    type Block = Block;

    fn data_chunks(&self) -> usize {
        self.k
    }

    fn total_chunks(&self) -> usize {
        self.n
    }

    fn encode(&self, block: &Block) -> EncodedBlock {
        let root = Self::commitment(block);
        self.store
            .blocks
            .lock()
            .expect("block store lock")
            .insert(root, block.clone());
        let shard = self.shard_len(block) as u32;
        // Same proof shape (index, leaf count, path depth) as a real
        // Merkle proof over N chunks, so the wire bytes match exactly.
        let path_len = merkle::expected_path_len(self.n as u32);
        let chunks = (0..self.n)
            .map(|i| {
                (
                    ChunkPayload::Synthetic { len: shard },
                    MerkleProof {
                        index: i as u32,
                        leaf_count: self.n as u32,
                        path: vec![Hash::ZERO; path_len],
                    },
                )
            })
            .collect();
        EncodedBlock { root, chunks }
    }

    fn verify(&self, _root: &Hash, proof: &MerkleProof, payload: &ChunkPayload) -> bool {
        // Structural checks only: fluid mode has no adversarial chunk
        // forgery to defend against (the store is the ground truth), but
        // the index/shape rules must match the real coder so the protocol
        // automata take identical paths.
        matches!(payload, ChunkPayload::Synthetic { .. })
            && proof.leaf_count as usize == self.n
            && (proof.index as usize) < self.n
            && proof.path.len() == merkle::expected_path_len(self.n as u32)
    }

    fn decode(&self, root: &Hash, chunks: &[(u32, ChunkPayload)]) -> Retrieved<Block> {
        if chunks.len() < self.k {
            // The Retriever never calls with fewer than k chunks; treat a
            // violation like an undecodable dispersal rather than panic.
            return Retrieved::BadUploader;
        }
        let store = self.store.blocks.lock().expect("block store lock");
        // Unknown commitment: in fluid mode only possible for a dispersal
        // that never went through `encode` — the moral equivalent of an
        // inconsistent encoding.
        let Some(block) = store.get(root) else {
            return Retrieved::BadUploader;
        };
        // The fluid re-encoding check: `encode` would declare every chunk
        // `shard_len` long. A bare chunk of another length or kind cannot
        // be the block's, as on the real coder.
        let shard = self.shard_len(block);
        let fits = |p: &ChunkPayload| matches!(p, ChunkPayload::Synthetic { len } if *len as usize == shard);
        if chunks.iter().all(|(_, p)| fits(p)) {
            Retrieved::Block(block.clone())
        } else {
            Retrieved::BadUploader
        }
    }
}

impl BlockCoder for FluidCoder {
    fn pack(&self, block: &Block) -> Block {
        block.clone()
    }

    fn unpack(&self, data: &Block) -> Option<Block> {
        Some(data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::{BlockHeader, Epoch, NodeId, Tx};

    fn sample(epoch: u64, seq: u64, len: u32) -> Block {
        Block {
            header: BlockHeader {
                epoch: Epoch(epoch),
                proposer: NodeId(1),
                v_array: vec![0; 4],
            },
            body: vec![Tx::synthetic(NodeId(1), seq, 0, len)],
        }
    }

    #[test]
    fn wire_sizes_match_the_real_coder() {
        // The fidelity property: a fluid chunk message occupies exactly
        // as many wire bytes as the real coder's chunk for the same
        // block, so virtual-time results carry over.
        // Chunk lengths are swept across the payload length's varint
        // edges (127/128 and 16,383/16,384 bytes), and each chunk is sized
        // as the whole envelope that carries it.
        let cluster = ClusterConfig::new(7);
        let fluid = FluidCoder::new(&cluster, BlockStore::new());
        let real = dl_core::RealBlockCoder::new(&cluster);
        let edges = [127, 128, 16_383, 16_384];
        let mut seen = std::collections::BTreeSet::new();
        for len in edges.iter().flat_map(|&e| 3 * e - 40..3 * e) {
            let block = sample(3, 9, len as u32);
            let enc_f = fluid.encode(&block);
            let enc_r = dl_vid::Coder::encode(&real, &BlockCoder::pack(&real, &block));
            assert_eq!(enc_f.chunks.len(), enc_r.chunks.len());
            for (i, (f, r)) in enc_f.chunks.into_iter().zip(enc_r.chunks).enumerate() {
                seen.insert(f.0.len());
                assert_eq!(f.0.len(), r.0.len(), "tx {len}: chunk {i}");
                let env = |(payload, proof), root| {
                    let msg = dl_wire::VidMsg::Chunk {
                        root,
                        proof,
                        payload,
                    };
                    dl_wire::Envelope::vid(dl_wire::Epoch(3), dl_wire::NodeId(1), msg)
                };
                assert_eq!(
                    env(f, enc_f.root).wire_size(),
                    env(r, enc_r.root).wire_size(),
                    "tx {len}: chunk {i}"
                );
            }
        }
        assert!(edges.iter().all(|e| seen.contains(e)), "{seen:?}");
    }

    #[test]
    fn roundtrip_through_store() {
        let cluster = ClusterConfig::new(4);
        let coder = FluidCoder::new(&cluster, BlockStore::new());
        let block = sample(1, 0, 500);
        let enc = coder.encode(&block);
        let subset: Vec<(u32, ChunkPayload)> = (0..coder.data_chunks() as u32)
            .map(|i| (i, enc.chunks[i as usize].0.clone()))
            .collect();
        assert_eq!(coder.decode(&enc.root, &subset), Retrieved::Block(block));
    }

    #[test]
    fn distinct_blocks_commit_to_distinct_roots() {
        let cluster = ClusterConfig::new(4);
        let coder = FluidCoder::new(&cluster, BlockStore::new());
        // An equivocator's pair: same epoch/proposer, different body.
        let a = coder.encode(&sample(5, 0, 64)).root;
        let b = coder.encode(&sample(5, 0, 96)).root;
        let c = coder.encode(&sample(5, 1, 64)).root;
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn chunks_of_the_wrong_length_or_kind_fail_the_reencoding() {
        let cluster = ClusterConfig::new(4);
        let coder = FluidCoder::new(&cluster, BlockStore::new());
        let enc = coder.encode(&sample(1, 0, 500));
        let ChunkPayload::Synthetic { len } = enc.chunks[0].0 else {
            panic!("fluid chunks are synthetic");
        };
        for odd in [
            ChunkPayload::Synthetic { len: len + 1 },
            ChunkPayload::Real(bytes::Bytes::from(vec![0; len as usize])),
        ] {
            let subset = [(0, enc.chunks[0].0.clone()), (1, odd)];
            assert_eq!(coder.decode(&enc.root, &subset), Retrieved::BadUploader);
        }
    }

    #[test]
    fn unknown_root_is_bad_uploader() {
        let cluster = ClusterConfig::new(4);
        let coder = FluidCoder::new(&cluster, BlockStore::new());
        let subset: Vec<(u32, ChunkPayload)> = (0..2)
            .map(|i| (i, ChunkPayload::Synthetic { len: 10 }))
            .collect();
        assert_eq!(
            coder.decode(&Hash::digest(b"nope"), &subset),
            Retrieved::BadUploader
        );
    }

    #[test]
    fn verify_enforces_real_proof_shape() {
        let cluster = ClusterConfig::new(7);
        let coder = FluidCoder::new(&cluster, BlockStore::new());
        let enc = coder.encode(&sample(1, 0, 100));
        let (payload, proof) = &enc.chunks[3];
        assert!(coder.verify(&enc.root, proof, payload));
        // Wrong leaf count, out-of-range index, truncated path: rejected.
        let mut bad = proof.clone();
        bad.leaf_count = 8;
        assert!(!coder.verify(&enc.root, &bad, payload));
        let mut bad = proof.clone();
        bad.index = 7;
        assert!(!coder.verify(&enc.root, &bad, payload));
        let mut bad = proof.clone();
        bad.path.pop();
        assert!(!coder.verify(&enc.root, &bad, payload));
        // Real payloads are never valid on the fluid coder.
        assert!(!coder.verify(&enc.root, proof, &ChunkPayload::Real(bytes::Bytes::new())));
    }
}
