//! Binary Merkle trees over byte chunks, with inclusion proofs.
//!
//! AVID-M commits to the array of `N` erasure-coded chunks with the root of a
//! Merkle tree (paper §3.3, Fig. 3 step 2). The dispersing client sends the
//! `i`-th server `Chunk(r, C_i, P_i)` where `P_i` is the inclusion proof; the
//! server verifies `P_i` before accepting. During retrieval the client verifies
//! proofs from servers the same way and, after decoding, *re-encodes* the block
//! and recomputes the root to detect inconsistent encodings.
//!
//! Construction notes:
//! * Leaves are domain-separated from interior nodes (`0x00` / `0x01` prefixes)
//!   so an interior node cannot be reinterpreted as a leaf (second-preimage
//!   hardening, as in RFC 6962).
//! * A leaf hash also binds the leaf *index* and the *leaf count*, so a proof
//!   for chunk `i` of an `N`-chunk tree cannot be replayed for a different
//!   position or tree shape.
//! * Odd layers are padded by duplicating the last node, matching the common
//!   construction used by the Go Merkle libraries the paper's prototype builds
//!   on.

#![forbid(unsafe_code)]

use crate::{Hash, Sha256};

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hash a leaf: `H(0x00 || index || count || data)`.
pub fn leaf_hash(index: u32, count: u32, data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(&index.to_be_bytes());
    h.update(&count.to_be_bytes());
    h.update(data);
    Hash(h.finalize())
}

/// Hash an interior node: `H(0x01 || left || right)`.
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(&left.0);
    h.update(&right.0);
    Hash(h.finalize())
}

/// A Merkle tree built over a list of byte chunks.
///
/// Stores every layer so proofs can be generated in `O(log n)`.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `layers[0]` = leaf hashes, `layers.last()` = `[root]`.
    layers: Vec<Vec<Hash>>,
    leaf_count: u32,
}

/// An inclusion proof for a single leaf.
///
/// The sibling path from the leaf to the root. The proof also carries the leaf
/// index and total leaf count; verification recomputes the leaf hash (which
/// binds both) and folds the path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: u32,
    /// Total number of leaves in the tree.
    pub leaf_count: u32,
    /// Sibling hashes, leaf layer first.
    pub path: Vec<Hash>,
}

impl MerkleProof {
    /// Verify that `data` is the `self.index`-th of `self.leaf_count` chunks
    /// under `root`.
    pub fn verify(&self, root: &Hash, data: &[u8]) -> bool {
        if self.index >= self.leaf_count {
            return false;
        }
        if self.path.len() != expected_path_len(self.leaf_count) {
            return false;
        }
        let mut acc = leaf_hash(self.index, self.leaf_count, data);
        let mut idx = self.index;
        for sib in &self.path {
            acc = if idx & 1 == 0 {
                node_hash(&acc, sib)
            } else {
                node_hash(sib, &acc)
            };
            idx >>= 1;
        }
        acc == *root
    }
}

/// Number of path elements for a tree of `leaf_count` leaves.
pub fn expected_path_len(leaf_count: u32) -> usize {
    if leaf_count <= 1 {
        0
    } else {
        let mut n = leaf_count;
        let mut depth = 0;
        while n > 1 {
            n = n.div_ceil(2);
            depth += 1;
        }
        depth
    }
}

impl MerkleTree {
    /// Build a tree over `chunks`. Panics if `chunks` is empty (a dispersal
    /// always has `N ≥ 4` chunks).
    pub fn build<T: AsRef<[u8]>>(chunks: &[T]) -> MerkleTree {
        assert!(!chunks.is_empty(), "MerkleTree over zero chunks");
        let count = chunks.len() as u32;
        let leaves: Vec<Hash> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| leaf_hash(i as u32, count, c.as_ref()))
            .collect();
        let mut layers = vec![leaves];
        while layers.last().unwrap().len() > 1 {
            let next = layers
                .last()
                .unwrap()
                .chunks(2)
                .map(|pair| {
                    let left = &pair[0];
                    // Duplicate the last node on odd layers.
                    let right = pair.get(1).unwrap_or(left);
                    node_hash(left, right)
                })
                .collect();
            layers.push(next);
        }
        MerkleTree {
            layers,
            leaf_count: count,
        }
    }

    /// Root commitment of the chunk array.
    pub fn root(&self) -> Hash {
        self.layers.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> u32 {
        self.leaf_count
    }

    /// Inclusion proof for leaf `index`. Panics if out of range.
    pub fn prove(&self, index: u32) -> MerkleProof {
        assert!(index < self.leaf_count, "proof index out of range");
        let mut path = Vec::with_capacity(self.layers.len() - 1);
        let mut idx = index as usize;
        for layer in &self.layers[..self.layers.len() - 1] {
            let sib_idx = idx ^ 1;
            // Odd layer: the sibling of a trailing node is itself.
            let sib = layer.get(sib_idx).unwrap_or(&layer[idx]);
            path.push(*sib);
            idx >>= 1;
        }
        MerkleProof {
            index,
            leaf_count: self.leaf_count,
            path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 16 + i]).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let c = chunks(1);
        let t = MerkleTree::build(&c);
        assert_eq!(t.root(), leaf_hash(0, 1, &c[0]));
        let p = t.prove(0);
        assert!(p.path.is_empty());
        assert!(p.verify(&t.root(), &c[0]));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        // Every small shape, then deep trees with odd layers on the way up.
        for n in (1..=33).chain([64, 127, 128, 2500]) {
            let c = chunks(n);
            let t = MerkleTree::build(&c);
            let root = t.root();
            for (i, chunk) in c.iter().enumerate() {
                let p = t.prove(i as u32);
                assert_eq!(p.path.len(), expected_path_len(n as u32));
                assert!(p.verify(&root, chunk), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_data() {
        let c = chunks(8);
        let t = MerkleTree::build(&c);
        let p = t.prove(3);
        assert!(!p.verify(&t.root(), b"not the chunk"));
    }

    #[test]
    fn proof_fails_for_wrong_position() {
        let c = chunks(8);
        let t = MerkleTree::build(&c);
        let mut p = t.prove(3);
        p.index = 4;
        assert!(!p.verify(&t.root(), &c[3]));
        // And a proof for chunk 3 does not verify chunk 4's data.
        let p3 = t.prove(3);
        assert!(!p3.verify(&t.root(), &c[4]));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let c = chunks(8);
        let t = MerkleTree::build(&c);
        let other = MerkleTree::build(&chunks(9));
        let p = t.prove(0);
        assert!(!p.verify(&other.root(), &c[0]));
    }

    #[test]
    fn proof_fails_with_truncated_path() {
        let c = chunks(8);
        let t = MerkleTree::build(&c);
        let mut p = t.prove(5);
        p.path.pop();
        assert!(!p.verify(&t.root(), &c[5]));
    }

    #[test]
    fn proof_fails_with_padded_path() {
        let c = chunks(8);
        let t = MerkleTree::build(&c);
        let mut p = t.prove(5);
        p.path.push(Hash::ZERO);
        assert!(!p.verify(&t.root(), &c[5]));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let c = chunks(4);
        let t = MerkleTree::build(&c);
        let mut p = t.prove(0);
        p.index = 10;
        p.leaf_count = 4;
        assert!(!p.verify(&t.root(), &c[0]));
    }

    #[test]
    fn different_leaf_order_changes_root() {
        let mut c = chunks(6);
        let r1 = MerkleTree::build(&c).root();
        c.swap(0, 1);
        let r2 = MerkleTree::build(&c).root();
        assert_ne!(r1, r2);
    }

    #[test]
    fn tree_shape_bound_into_leaf() {
        // The same data at the same index under a different leaf count must
        // produce a different root (no shape-extension ambiguity).
        let c4 = chunks(4);
        let mut c5 = chunks(4);
        c5.push(c4[3].clone());
        assert_ne!(MerkleTree::build(&c4).root(), MerkleTree::build(&c5).root());
    }

    #[test]
    fn interior_nodes_cannot_be_leaves() {
        // Domain separation: a forged "leaf" equal to an interior preimage
        // cannot reproduce the parent hash.
        let c = chunks(2);
        let t = MerkleTree::build(&c);
        let mut forged = Vec::new();
        forged.extend_from_slice(&leaf_hash(0, 2, &c[0]).0);
        forged.extend_from_slice(&leaf_hash(1, 2, &c[1]).0);
        assert_ne!(leaf_hash(0, 1, &forged), t.root());
    }

    #[test]
    fn path_depth_matches_leaf_count() {
        let c = chunks(16);
        let t = MerkleTree::build(&c);
        let p = t.prove(7);
        assert_eq!(p.path.len(), 4);
    }
}
