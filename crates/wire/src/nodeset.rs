//! A fixed-capacity set of node ids.
//!
//! Quorum tracking (GotChunk/Ready senders, BVal/Aux/Term senders) needs one
//! set per root/round/value, and big-cluster simulations hold millions of
//! such sets. `NodeSet` is a 256-bit bitmap — 32 bytes, no allocation — which
//! also matches the protocol-wide `N ≤ 256` bound imposed by the GF(2^8)
//! erasure code.

use crate::config::NodeId;

/// A set of `NodeId`s with ids `< 256`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeSet {
    bits: [u64; 4],
}

impl NodeSet {
    pub const fn new() -> NodeSet {
        NodeSet { bits: [0; 4] }
    }

    /// Insert; returns `true` if the node was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (word, bit) = Self::locate(node);
        let mask = 1u64 << bit;
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        fresh
    }

    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = Self::locate(node);
        self.bits[word] & (1 << bit) != 0
    }

    pub fn remove(&mut self, node: NodeId) -> bool {
        let (word, bit) = Self::locate(node);
        let mask = 1u64 << bit;
        let present = self.bits[word] & mask != 0;
        self.bits[word] &= !mask;
        present
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterate members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros();
                rest &= rest.wrapping_sub(1);
                (bit < 64).then(|| NodeId(word as u16 * 64 + bit as u16))
            })
        })
    }

    fn locate(node: NodeId) -> (usize, u32) {
        let id = node.0 as usize;
        assert!(id < 256, "NodeSet supports ids < 256, got {id}");
        (id / 64, (id % 64) as u32)
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(63)));
        assert!(s.insert(NodeId(64)));
        assert!(s.insert(NodeId(255)));
        assert!(!s.insert(NodeId(0)), "duplicate insert must report false");
        assert_eq!(s.len(), 4);
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(1)));
    }

    #[test]
    fn remove() {
        let mut s: NodeSet = [NodeId(3), NodeId(100)].into_iter().collect();
        assert!(s.remove(NodeId(3)));
        assert!(!s.remove(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_order() {
        let s: NodeSet = [NodeId(200), NodeId(5), NodeId(64)].into_iter().collect();
        let v: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![5, 64, 200]);
    }

    #[test]
    #[should_panic]
    fn oversized_id_panics() {
        let mut s = NodeSet::new();
        s.insert(NodeId(256));
    }
}
