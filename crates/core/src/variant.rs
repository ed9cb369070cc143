//! Protocol variants and node configuration.
//!
//! The paper evaluates four protocols that share one engine (§6): the
//! differences reduce to three questions [`ProtocolVariant`] answers —
//! *does a node fetch a block before it votes for it* (and, with that,
//! propose in lockstep with delivery), *is inter-node linking on*, and
//! *does DL-Coupled's empty-block rule apply*.

use dl_wire::ClusterConfig;

/// The four protocols of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolVariant {
    /// DispersedLedger (§4).
    Dl,
    /// DispersedLedger with the spam-resistant coupling rule (§4.5).
    DlCoupled,
    /// HoneyBadger rebuilt on the same substrate (broadcast = VID +
    /// immediate retrieval), as in §6's comparison.
    HoneyBadger,
    /// HoneyBadger + inter-node linking ("HB-Link" in §6).
    HoneyBadgerLink,
}

impl ProtocolVariant {
    /// Short name used in benchmark output (matches the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolVariant::Dl => "DL",
            ProtocolVariant::DlCoupled => "DL-Coupled",
            ProtocolVariant::HoneyBadger => "HB",
            ProtocolVariant::HoneyBadgerLink => "HB-Link",
        }
    }

    /// HoneyBadger semantics: a node votes `Input(1)` on `BA_j` only after
    /// it has *downloaded* block `j` (VID used as reliable broadcast), and
    /// proposes for epoch `e + 1` only once epoch `e` is *delivered* — the
    /// lockstep that couples proposal rate to download rate (§6.2).
    /// DispersedLedger votes on `Complete` alone and proposes once every BA
    /// of `e` has output (§4.5 "Running multiple epochs in parallel"),
    /// earlier still under its dispersal window (`node::dispersal`).
    /// HoneyBadger is never pipelined: letting it run ahead measured +7 %
    /// goodput for +41 % bytes per payload byte.
    pub(crate) fn retrieve_then_vote(self) -> bool {
        matches!(
            self,
            ProtocolVariant::HoneyBadger | ProtocolVariant::HoneyBadgerLink
        )
    }

    /// Inter-node linking (§4.3): deliver every dispersed block, not just
    /// the `N − f` committed by BA.
    pub(crate) fn links(self) -> bool {
        self != ProtocolVariant::HoneyBadger
    }

    /// DL-Coupled (§4.5 "Spam transactions"): while retrieval lags more than
    /// [`crate::LAG_LIMIT`] epochs behind the propose gate, propose *empty*
    /// blocks instead of new transactions.
    pub(crate) fn empty_when_lagging(self) -> bool {
        self == ProtocolVariant::DlCoupled
    }
}

/// Full node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    pub cluster: ClusterConfig,
    pub variant: ProtocolVariant,
    /// Nagle size threshold (§5; default 150 KB).
    pub propose_size: usize,
    /// Accept messages at most this many epochs past our agreement frontier
    /// (anti-DoS bound). An honest node disperses at most half this far
    /// past its own frontier, so a peer trailing it by as much still admits
    /// everything it sends.
    pub epoch_lookahead: u64,
}

impl NodeConfig {
    /// Configuration with the paper's defaults.
    pub fn new(cluster: ClusterConfig, variant: ProtocolVariant) -> NodeConfig {
        NodeConfig {
            cluster,
            variant,
            propose_size: crate::DEFAULT_PROPOSE_SIZE,
            epoch_lookahead: crate::DEFAULT_EPOCH_LOOKAHEAD,
        }
    }

    /// The epoch admission and retention span, in epochs past a frontier.
    /// Every bound that means "how far around the frontier do we keep
    /// state" (message admission, GC, sync batches) is this one number; the
    /// dispersal window's depth bound is half of it (see `node::dispersal`).
    pub fn horizon(&self) -> u64 {
        self.epoch_lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ProtocolVariant::Dl.label(), "DL");
        assert_eq!(ProtocolVariant::DlCoupled.label(), "DL-Coupled");
        assert_eq!(ProtocolVariant::HoneyBadger.label(), "HB");
        assert_eq!(ProtocolVariant::HoneyBadgerLink.label(), "HB-Link");
    }

    #[test]
    fn full_flag_matrix() {
        // The complete variant table from the crate docs, one row per
        // protocol: (retrieve_then_vote, links, empty_when_lagging).
        let expect = [
            (ProtocolVariant::Dl, false, true, false),
            (ProtocolVariant::DlCoupled, false, true, true),
            (ProtocolVariant::HoneyBadger, true, false, false),
            (ProtocolVariant::HoneyBadgerLink, true, true, false),
        ];
        for (variant, vote, links, empty) in expect {
            assert_eq!(variant.retrieve_then_vote(), vote, "{variant:?}");
            assert_eq!(variant.links(), links, "{variant:?}");
            assert_eq!(variant.empty_when_lagging(), empty, "{variant:?}");
        }
    }

    #[test]
    fn config_defaults_match_paper_constants() {
        let cfg = NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl);
        assert_eq!(cfg.propose_size, crate::DEFAULT_PROPOSE_SIZE);
        assert_eq!(cfg.epoch_lookahead, crate::DEFAULT_EPOCH_LOOKAHEAD);
        assert_eq!(crate::LAG_LIMIT, 1, "P = 1 equals HoneyBadger's coupling");
        assert_eq!(cfg.horizon(), cfg.epoch_lookahead, "one horizon knob");
    }
}
