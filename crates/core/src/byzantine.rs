//! Byzantine node behaviours for tests and fault-injection runs.
//!
//! A [`ByzantineNode`] implements the same [`crate::Engine`] trait as the
//! honest [`crate::Node`], so drivers (the mesh test harness, `dl-sim`,
//! `dl-net`) can drop one into a cluster slot as a `Box<dyn Engine>` without
//! special-casing. Five behaviours ship:
//!
//! * [`ByzantineBehavior::Mute`] — a crashed node: consumes everything,
//!   emits nothing. Exercises the `f`-crash-tolerance of every layer.
//! * [`ByzantineBehavior::Equivocate`] — a malicious proposer: disperses
//!   *two different blocks* for the same epoch, sending chunks of block A
//!   (under A's Merkle root) to even-numbered peers and chunks of block B
//!   to odd-numbered peers, and votes contradictorily in every BA. AVID-M
//!   guarantees no root can assemble an `N − f` quorum, so the equivocator's
//!   dispersal never completes and its BA slot decides 0 — the cluster
//!   commits the epoch without it.
//! * [`ByzantineBehavior::DelayRelease`] — a straggling proposer by
//!   choice: builds a *valid* dispersal but withholds every chunk and vote
//!   until the last useful moment, probing the pipeline's tolerance for
//!   late-but-correct traffic (the epoch must commit either with the late
//!   block or, if the ACS zero-fill won the race, without it — never
//!   inconsistently).
//! * [`ByzantineBehavior::SelectiveSend`] — disperses a valid block to one
//!   peer short of any completing quorum, so its dispersal can never
//!   gather `N − f` acknowledgements and the cluster must commit the epoch
//!   around the permanently-pending slot.
//! * [`ByzantineBehavior::GarbageChunks`] — sends structurally well-formed
//!   chunks whose Merkle proofs do not verify against the advertised root,
//!   exercising every honest node's chunk-rejection path end to end.

use dl_crypto::Hash;
use dl_wire::{BaMsg, Block, Envelope, Epoch, NodeId, Tx, VidMsg};

use crate::coder::BlockCoder;
use crate::engine::{EffectSink, Engine};

use crate::variant::NodeConfig;

/// What a Byzantine node does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ByzantineBehavior {
    /// Crashed: participates in nothing.
    Mute,
    /// Disperses two conflicting blocks per epoch and votes both ways in
    /// every BA.
    Equivocate,
    /// Disperses a valid block but releases its chunks and votes only
    /// after [`ByzantineNode::RELEASE_DELAY_MS`].
    DelayRelease,
    /// Disperses a valid block to one peer short of a completing quorum.
    SelectiveSend,
    /// Disperses chunks whose Merkle proofs do not verify.
    GarbageChunks,
}

/// A faulty cluster member with the same [`Engine`] interface as
/// [`crate::Node`].
pub struct ByzantineNode<C: BlockCoder> {
    me: NodeId,
    cfg: NodeConfig,
    coder: C,
    behavior: ByzantineBehavior,
    /// Highest epoch this node has attacked (0 = none yet).
    attacked_up_to: u64,
    /// Envelopes a `DelayRelease` node is sitting on: `(due, to, env)`.
    withheld: Vec<(u64, NodeId, Envelope)>,
}

impl<C: BlockCoder> ByzantineNode<C> {
    pub fn new(
        me: NodeId,
        cfg: NodeConfig,
        coder: C,
        behavior: ByzantineBehavior,
    ) -> ByzantineNode<C> {
        assert!(me.idx() < cfg.cluster.n, "node id out of range");
        ByzantineNode {
            me,
            cfg,
            coder,
            behavior,
            attacked_up_to: 0,
            withheld: Vec::new(),
        }
    }

    /// How long a [`ByzantineBehavior::DelayRelease`] node sits on its
    /// chunks and votes: several Nagle delays — late enough that honest
    /// peers' epochs are well under way, early enough to still be usable.
    pub const RELEASE_DELAY_MS: u64 = 350;

    pub fn id(&self) -> NodeId {
        self.me
    }

    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
    }

    /// One valid block for `epoch`, encoded: the raw material for the
    /// behaviours that disperse real (if ill-intentioned) payloads.
    fn valid_encoding(&self, epoch: u64) -> (Block, dl_vid::EncodedBlock) {
        let block = Block {
            header: dl_wire::BlockHeader {
                epoch: Epoch(epoch),
                proposer: self.me,
                v_array: vec![0; self.cfg.cluster.n],
            },
            body: vec![Tx::synthetic(self.me, epoch, 0, 64)],
        };
        let enc = self.coder.encode(&self.coder.pack(&block));
        (block, enc)
    }

    /// `DelayRelease`: build a fully valid dispersal, then sit on every
    /// chunk and vote until `now + RELEASE_DELAY_MS`.
    fn attack_delay_release(&mut self, epoch: u64, now: u64, sink: &mut dyn EffectSink) {
        let n = self.cfg.cluster.n;
        let (_, enc) = self.valid_encoding(epoch);
        let due = now + Self::RELEASE_DELAY_MS;
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me {
                continue;
            }
            let (payload, proof) = enc.chunks[i].clone();
            self.withheld.push((
                due,
                to,
                Envelope::vid(
                    Epoch(epoch),
                    self.me,
                    VidMsg::Chunk {
                        root: enc.root,
                        proof,
                        payload,
                    },
                ),
            ));
            self.withheld.push((
                due,
                to,
                Envelope::ba(
                    Epoch(epoch),
                    self.me,
                    BaMsg::BVal {
                        round: 0,
                        value: true,
                    },
                ),
            ));
        }
        sink.wake_at(due);
    }

    /// `SelectiveSend`: a valid dispersal to one peer short of a quorum —
    /// even if every recipient acknowledges, completion needs `N − f`
    /// votes and only `N − f − 1` peers ever saw a chunk.
    fn attack_selective_send(&self, epoch: u64, sink: &mut dyn EffectSink) {
        let n = self.cfg.cluster.n;
        let f = self.cfg.cluster.f;
        let (_, enc) = self.valid_encoding(epoch);
        let mut sent = 0usize;
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me || sent == n - f - 1 {
                continue;
            }
            sent += 1;
            let (payload, proof) = enc.chunks[i].clone();
            sink.send(
                to,
                Envelope::vid(
                    Epoch(epoch),
                    self.me,
                    VidMsg::Chunk {
                        root: enc.root,
                        proof,
                        payload,
                    },
                ),
            );
        }
    }

    /// `GarbageChunks`: structurally well-formed chunks advertised under a
    /// root their Merkle proofs cannot verify against. Every honest server
    /// must reject them without acknowledging or storing anything.
    fn attack_garbage_chunks(&self, epoch: u64, sink: &mut dyn EffectSink) {
        let n = self.cfg.cluster.n;
        let (_, enc) = self.valid_encoding(epoch);
        let bogus_root = Hash::digest(b"dl-byzantine-garbage-root");
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me {
                continue;
            }
            let (payload, proof) = enc.chunks[i].clone();
            sink.send(
                to,
                Envelope::vid(
                    Epoch(epoch),
                    self.me,
                    VidMsg::Chunk {
                        root: bogus_root,
                        proof,
                        payload,
                    },
                ),
            );
        }
    }

    /// The equivocation payload for one epoch: two conflicting dispersals
    /// plus contradictory BA votes.
    fn attack(&self, epoch: u64, sink: &mut dyn EffectSink) {
        let n = self.cfg.cluster.n;
        let block_a = Block {
            header: dl_wire::BlockHeader {
                epoch: Epoch(epoch),
                proposer: self.me,
                v_array: vec![0; n],
            },
            body: vec![Tx::synthetic(self.me, epoch, 0, 64)],
        };
        let mut block_b = block_a.clone();
        block_b.body = vec![Tx::synthetic(self.me, epoch, 1, 96)];
        let enc_a = self.coder.encode(&self.coder.pack(&block_a));
        let enc_b = self.coder.encode(&self.coder.pack(&block_b));
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me {
                continue;
            }
            let (enc, root) = if i % 2 == 0 {
                (&enc_a, enc_a.root)
            } else {
                (&enc_b, enc_b.root)
            };
            let (payload, proof) = enc.chunks[i].clone();
            sink.send(
                to,
                Envelope::vid(
                    Epoch(epoch),
                    self.me,
                    VidMsg::Chunk {
                        root,
                        proof,
                        payload,
                    },
                ),
            );
            // Contradictory binary-agreement votes on every instance.
            for j in 0..n {
                sink.send(
                    to,
                    Envelope::ba(
                        Epoch(epoch),
                        NodeId(j as u16),
                        BaMsg::BVal {
                            round: 0,
                            value: i % 2 == 0,
                        },
                    ),
                );
            }
        }
    }
}

impl<C: BlockCoder> Engine for ByzantineNode<C> {
    fn id(&self) -> NodeId {
        self.me
    }

    /// Byzantine nodes ignore client transactions.
    fn submit_tx(&mut self, _tx: Tx, _now: u64, _sink: &mut dyn EffectSink) {}

    /// Reactive behaviours attack an epoch the first time they see traffic
    /// for it; mute nodes drop everything.
    fn handle(&mut self, _from: NodeId, env: Envelope, now: u64, sink: &mut dyn EffectSink) {
        if self.behavior == ByzantineBehavior::Mute {
            return;
        }
        let epoch = env.epoch.0;
        if epoch == 0 || epoch <= self.attacked_up_to || epoch > self.attacked_up_to + 8 {
            return; // once per epoch; bounded lookahead
        }
        self.attacked_up_to = epoch;
        match self.behavior {
            #[expect(
                clippy::unreachable,
                reason = "Mute returns from `handle` before the attack dispatch; \
                          reaching this arm means that early return was lost"
            )]
            ByzantineBehavior::Mute => unreachable!(),
            ByzantineBehavior::Equivocate => self.attack(epoch, sink),
            ByzantineBehavior::DelayRelease => self.attack_delay_release(epoch, now, sink),
            ByzantineBehavior::SelectiveSend => self.attack_selective_send(epoch, sink),
            ByzantineBehavior::GarbageChunks => self.attack_garbage_chunks(epoch, sink),
        }
    }

    /// A `DelayRelease` node flushes whatever it has been sitting on once
    /// the release time passes; every other behaviour is purely reactive.
    fn poll(&mut self, now: u64, sink: &mut dyn EffectSink) {
        if self.withheld.is_empty() {
            return;
        }
        let mut next_due: Option<u64> = None;
        let mut i = 0;
        while i < self.withheld.len() {
            if self.withheld[i].0 <= now {
                let (_, to, env) = self.withheld.swap_remove(i);
                sink.send(to, env);
            } else {
                let due = self.withheld[i].0;
                next_due = Some(next_due.map_or(due, |d| d.min(due)));
                i += 1;
            }
        }
        if let Some(due) = next_due {
            sink.wake_at(due);
        }
    }

    // `stats` keeps the default `None`: a Byzantine node's self-reported
    // counters would be meaningless.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::RealBlockCoder;
    use crate::engine::EngineExt;
    use crate::node::tests::through_the_codec;
    use crate::node::{Node, NodeEffect};
    use crate::variant::ProtocolVariant;
    use dl_wire::ClusterConfig;
    use std::collections::VecDeque;

    type Wire = VecDeque<(NodeId, NodeId, Envelope)>;
    type TxOrders = Vec<Vec<(NodeId, u64)>>;

    fn sink(from: usize, effs: Vec<NodeEffect>, wire: &mut Wire, orders: &mut TxOrders) {
        for eff in effs {
            match eff {
                NodeEffect::Send(to, env) => {
                    wire.push_back((NodeId(from as u16), to, through_the_codec(env)))
                }
                NodeEffect::Deliver(d) => {
                    if let Some(b) = d.block {
                        orders[from].extend(b.body.iter().map(Tx::id));
                    }
                }
                _ => {}
            }
        }
    }

    /// Mesh of 3 honest nodes + 1 Byzantine in slot 3, held uniformly as
    /// `Box<dyn Engine>` — no per-kind dispatch anywhere in the driver.
    fn run_cluster(behavior: ByzantineBehavior) -> (Vec<Box<dyn Engine>>, TxOrders) {
        let cluster = ClusterConfig::new(4);
        let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
        let mut nodes: Vec<Box<dyn Engine>> = (0..3)
            .map(|i| {
                Box::new(Node::new(
                    NodeId(i as u16),
                    cfg.clone(),
                    RealBlockCoder::new(&cluster),
                )) as Box<dyn Engine>
            })
            .collect();
        nodes.push(Box::new(ByzantineNode::new(
            NodeId(3),
            cfg.clone(),
            RealBlockCoder::new(&cluster),
            behavior,
        )));
        let mut wire: Wire = VecDeque::new();
        let mut orders: TxOrders = vec![Vec::new(); 4];
        let mut now = 0;
        let effs = nodes[0].submit_tx_vec(Tx::synthetic(NodeId(0), 0, 0, 120), now);
        sink(0, effs, &mut wire, &mut orders);
        for _ in 0..900 {
            now += 10;
            for (i, node) in nodes.iter_mut().enumerate() {
                let effs = node.poll_vec(now);
                sink(i, effs, &mut wire, &mut orders);
            }
            while let Some((from, to, env)) = wire.pop_front() {
                let effs = nodes[to.idx()].handle_vec(from, env, now);
                sink(to.idx(), effs, &mut wire, &mut orders);
            }
        }
        (nodes, orders)
    }

    #[test]
    fn cluster_survives_mute_node() {
        let (nodes, orders) = run_cluster(ByzantineBehavior::Mute);
        for (i, node) in nodes[..3].iter().enumerate() {
            assert_eq!(node.stats().unwrap().txs_delivered, 1, "node {i}");
        }
        assert!(nodes[3].stats().is_none(), "Byzantine slot reported stats");
        assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cluster_survives_equivocating_node() {
        let (nodes, orders) = run_cluster(ByzantineBehavior::Equivocate);
        for (i, node) in nodes[..3].iter().enumerate() {
            let stats = node.stats().unwrap();
            assert_eq!(stats.txs_delivered, 1, "node {i}");
            // The equivocator's dispersal must never complete, so nothing
            // of it is ever delivered.
            assert_eq!(stats.malformed_blocks_delivered, 0, "node {i}");
        }
        assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cluster_survives_delay_release_node() {
        let (nodes, orders) = run_cluster(ByzantineBehavior::DelayRelease);
        for (i, node) in nodes[..3].iter().enumerate() {
            let stats = node.stats().unwrap();
            // The withheld block is *valid*, so it may legitimately deliver
            // (late) alongside the honest transaction — but never as a
            // malformed slot, and never inconsistently across peers.
            assert_eq!(stats.malformed_blocks_delivered, 0, "node {i}");
        }
        for (i, order) in orders[..3].iter().enumerate() {
            assert!(
                order.contains(&(NodeId(0), 0)),
                "node {i} lost the honest tx: {order:?}"
            );
        }
        assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cluster_survives_selective_send_node() {
        let (nodes, orders) = run_cluster(ByzantineBehavior::SelectiveSend);
        for (i, node) in nodes[..3].iter().enumerate() {
            let stats = node.stats().unwrap();
            // One peer short of a quorum: the dispersal can never complete,
            // so only the honest transaction is ever delivered.
            assert_eq!(stats.txs_delivered, 1, "node {i}");
            assert_eq!(stats.malformed_blocks_delivered, 0, "node {i}");
        }
        assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cluster_survives_garbage_chunks_node() {
        let (nodes, orders) = run_cluster(ByzantineBehavior::GarbageChunks);
        for (i, node) in nodes[..3].iter().enumerate() {
            let stats = node.stats().unwrap();
            // Every chunk fails Merkle verification at every honest server,
            // so the garbage dispersal gathers zero acknowledgements.
            assert_eq!(stats.txs_delivered, 1, "node {i}");
            assert_eq!(stats.malformed_blocks_delivered, 0, "node {i}");
        }
        assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn equivocator_attacks_each_epoch_once() {
        let cluster = ClusterConfig::new(4);
        let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
        let mut byz = ByzantineNode::new(
            NodeId(3),
            cfg,
            RealBlockCoder::new(&cluster),
            ByzantineBehavior::Equivocate,
        );
        let env = Envelope::ba(
            Epoch(1),
            NodeId(0),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        );
        let first = byz.handle_vec(NodeId(0), env.clone(), 0);
        assert!(!first.is_empty());
        assert!(
            byz.handle_vec(NodeId(0), env, 5).is_empty(),
            "second attack on same epoch"
        );
    }

    #[test]
    fn mute_node_is_silent() {
        let cluster = ClusterConfig::new(4);
        let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
        let mut byz = ByzantineNode::new(
            NodeId(3),
            cfg,
            RealBlockCoder::new(&cluster),
            ByzantineBehavior::Mute,
        );
        assert!(byz
            .submit_tx_vec(Tx::synthetic(NodeId(3), 0, 0, 10), 0)
            .is_empty());
        assert!(byz.poll_vec(1000).is_empty());
        let env = Envelope::ba(
            Epoch(1),
            NodeId(0),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        );
        assert!(byz.handle_vec(NodeId(0), env, 0).is_empty());
    }
}
