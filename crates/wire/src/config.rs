//! Cluster parameters and basic identifiers.

/// Identifier of a node (server) in the cluster, in `0..N`.
///
/// The paper numbers nodes 1..N; we use 0-based indices throughout and only
/// the documentation refers to the paper's 1-based convention.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u16)
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Epoch number, 1-based as in the paper (Fig. 17). `Epoch(0)` is the
/// "before any epoch" sentinel used in `V` arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The first real epoch.
    pub const FIRST: Epoch = Epoch(1);
    /// Sentinel meaning "no epoch completed yet".
    pub const ZERO: Epoch = Epoch(0);

    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    pub fn prev(self) -> Option<Epoch> {
        self.0.checked_sub(1).map(Epoch)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Static cluster configuration, public knowledge at every node (§2.4).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes `N`.
    pub n: usize,
    /// Fault tolerance `f`; the protocol requires `N ≥ 3f + 1`.
    pub f: usize,
    /// Shared seed for the common coin (see `dl-ba::coin` for the trust
    /// model of this substitution).
    pub coin_seed: [u8; 32],
}

impl ClusterConfig {
    /// Cluster of `n` nodes with the maximum tolerable `f = ⌊(n−1)/3⌋`.
    pub fn new(n: usize) -> ClusterConfig {
        assert!(n >= 4, "BFT needs at least 4 nodes");
        ClusterConfig {
            n,
            f: (n - 1) / 3,
            coin_seed: [0x42; 32],
        }
    }

    /// Quorum that guarantees a majority of correct nodes behind it: `N − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// Erasure-code data-chunk count for AVID-M: `N − 2f`.
    pub fn data_chunks(&self) -> usize {
        self.n - 2 * self.f
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u16).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_f() {
        assert_eq!(ClusterConfig::new(4).f, 1);
        assert_eq!(ClusterConfig::new(7).f, 2);
        assert_eq!(ClusterConfig::new(16).f, 5);
        assert_eq!(ClusterConfig::new(128).f, 42);
    }

    #[test]
    fn quorums() {
        let c = ClusterConfig::new(16);
        assert_eq!(c.quorum(), 11);
        assert_eq!(c.data_chunks(), 6);
        // N - f >= 2f + 1 must hold for AVID-M's Ready amplification.
        assert!(c.quorum() >= 2 * c.f + 1);
    }

    #[test]
    fn epoch_arithmetic() {
        assert_eq!(Epoch::ZERO.next(), Epoch::FIRST);
        assert_eq!(Epoch(5).prev(), Some(Epoch(4)));
        assert_eq!(Epoch(0).prev(), None);
    }

    #[test]
    fn node_iteration() {
        let c = ClusterConfig::new(4);
        let ids: Vec<NodeId> = c.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }
}
