//! Protocol variants and node configuration.
//!
//! The paper evaluates four protocols that share one engine (§6): the
//! differences reduce to three switches — *when a node votes for a block*,
//! *when the next epoch's proposal may start*, and *whether inter-node
//! linking is on* — plus DL-Coupled's empty-block rule. [`VariantFlags`]
//! captures the switches; [`ProtocolVariant`] names the paper's four
//! configurations (custom flag combinations are used by the ablation
//! benches).

use dl_wire::ClusterConfig;

/// When a node is allowed to propose its block for epoch `e+1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProposeGate {
    /// After epoch `e`'s dispersal phase finishes (all BAs output) —
    /// DispersedLedger's pipeline (§4.5 "Running multiple epochs in
    /// parallel"). A node with `d` full Nagle batches already waiting may
    /// open the epoch `d` past the gate earlier still: the
    /// backlog-triggered dispersal window of `node::dispersal`.
    DispersalDone,
    /// After epoch `e` is fully *delivered* — HoneyBadger's lockstep, which
    /// couples proposal rate to download rate (§6.2's latency analysis).
    /// Never pipelined: lockstep is what the baseline *is*, and letting it
    /// run ahead measured +7 % goodput for +41 % bytes per payload byte.
    Delivered,
}

/// The behavioural switches distinguishing the evaluated protocols.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VariantFlags {
    /// HoneyBadger semantics: a node votes `Input(1)` on `BA_j` only after
    /// it has *downloaded* block `j` (VID used as reliable broadcast, i.e.
    /// retrieval invoked right after dispersal). DispersedLedger votes on
    /// `Complete` alone.
    pub vote_requires_retrieval: bool,
    /// Gate for proposing into the next epoch.
    pub propose_gate: ProposeGate,
    /// Inter-node linking (§4.3): deliver every dispersed block, not just
    /// the `N−f` committed by BA.
    pub linking: bool,
    /// DL-Coupled (§4.5 "Spam transactions"): while retrieval lags more than
    /// `lag_limit` epochs behind the proposal frontier, propose *empty*
    /// blocks instead of new transactions.
    pub empty_when_lagging: bool,
}

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
    /// The flag set for this variant.
    pub fn flags(self) -> VariantFlags {
        match self {
            ProtocolVariant::Dl => VariantFlags {
                vote_requires_retrieval: false,
                propose_gate: ProposeGate::DispersalDone,
                linking: true,
                empty_when_lagging: false,
            },
            ProtocolVariant::DlCoupled => VariantFlags {
                vote_requires_retrieval: false,
                propose_gate: ProposeGate::DispersalDone,
                linking: true,
                empty_when_lagging: true,
            },
            ProtocolVariant::HoneyBadger => VariantFlags {
                vote_requires_retrieval: true,
                propose_gate: ProposeGate::Delivered,
                linking: false,
                empty_when_lagging: false,
            },
            ProtocolVariant::HoneyBadgerLink => VariantFlags {
                vote_requires_retrieval: true,
                propose_gate: ProposeGate::Delivered,
                linking: true,
                empty_when_lagging: false,
            },
        }
    }

    /// Short name used in benchmark output (matches the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolVariant::Dl => "DL",
            ProtocolVariant::DlCoupled => "DL-Coupled",
            ProtocolVariant::HoneyBadger => "HB",
            ProtocolVariant::HoneyBadgerLink => "HB-Link",
        }
    }
}

/// Full node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    pub cluster: ClusterConfig,
    pub flags: VariantFlags,
    /// Nagle delay threshold (§5; default 100 ms).
    pub propose_delay_ms: u64,
    /// Nagle size threshold (§5; default 150 KB).
    pub propose_size: usize,
    /// Epochs of retrieval lag tolerated before the `empty_when_lagging`
    /// rule kicks in (`P` of §4.5; `P = 1` equals HoneyBadger's coupling).
    pub lag_limit: u64,
    /// Accept messages at most this many epochs past our agreement frontier
    /// (anti-DoS bound). An honest node disperses at most half this far
    /// past its own frontier, so a peer trailing it by as much still admits
    /// everything it sends.
    pub epoch_lookahead: u64,
}

impl NodeConfig {
    /// Configuration with the paper's defaults.
    pub fn new(cluster: ClusterConfig, variant: ProtocolVariant) -> NodeConfig {
        NodeConfig::with_flags(cluster, variant.flags())
    }

    /// Configuration with explicit flags (ablation studies).
    pub fn with_flags(cluster: ClusterConfig, flags: VariantFlags) -> NodeConfig {
        NodeConfig {
            cluster,
            flags,
            propose_delay_ms: crate::DEFAULT_PROPOSE_DELAY_MS,
            propose_size: crate::DEFAULT_PROPOSE_SIZE,
            lag_limit: 1,
            epoch_lookahead: crate::DEFAULT_EPOCH_LOOKAHEAD,
        }
    }

    /// The epoch admission and retention span, in epochs past a frontier.
    /// Every bound that means "how far around the frontier do we keep
    /// state" (message admission, GC, sync batches, log compaction) is
    /// this one number; the dispersal window's depth bound is half of it
    /// (see `node::dispersal`).
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
        // protocol: (vote_requires_retrieval, propose_gate, linking,
        // empty_when_lagging).
        let expect = [
            (
                ProtocolVariant::Dl,
                false,
                ProposeGate::DispersalDone,
                true,
                false,
            ),
            (
                ProtocolVariant::DlCoupled,
                false,
                ProposeGate::DispersalDone,
                true,
                true,
            ),
            (
                ProtocolVariant::HoneyBadger,
                true,
                ProposeGate::Delivered,
                false,
                false,
            ),
            (
                ProtocolVariant::HoneyBadgerLink,
                true,
                ProposeGate::Delivered,
                true,
                false,
            ),
        ];
        for (variant, vote, gate, linking, empty) in expect {
            let f = variant.flags();
            assert_eq!(f.vote_requires_retrieval, vote, "{variant:?}");
            assert_eq!(f.propose_gate, gate, "{variant:?}");
            assert_eq!(f.linking, linking, "{variant:?}");
            assert_eq!(f.empty_when_lagging, empty, "{variant:?}");
        }
    }

    #[test]
    fn config_defaults_match_paper_constants() {
        let cfg = NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl);
        assert_eq!(cfg.propose_delay_ms, crate::DEFAULT_PROPOSE_DELAY_MS);
        assert_eq!(cfg.propose_size, crate::DEFAULT_PROPOSE_SIZE);
        assert_eq!(cfg.epoch_lookahead, crate::DEFAULT_EPOCH_LOOKAHEAD);
        assert_eq!(cfg.lag_limit, 1, "P = 1 equals HoneyBadger's coupling");
        assert_eq!(cfg.horizon(), cfg.epoch_lookahead, "one horizon knob");
    }

    #[test]
    fn with_flags_passes_custom_combination_through() {
        // An ablation combination that is none of the four named variants:
        // HoneyBadger-style voting with the DL propose gate.
        let flags = VariantFlags {
            vote_requires_retrieval: true,
            propose_gate: ProposeGate::DispersalDone,
            linking: false,
            empty_when_lagging: false,
        };
        let cfg = NodeConfig::with_flags(ClusterConfig::new(7), flags);
        assert_eq!(cfg.flags, flags);
        assert_eq!(cfg.cluster.n, 7);
    }
}
