use super::dispersal::WINDOW_BUDGET_BATCHES;
use super::*;
use crate::coder::RealBlockCoder;
use crate::engine::EngineExt;
use crate::records::StoreRecord;
use crate::variant::{NodeConfig, ProtocolVariant};
use dl_crypto::Hash;
use dl_wire::{
    BaMsg, Block, ClusterConfig, Envelope, Epoch, NodeId, ProtoMsg, SyncMsg, Tx, VidMsg,
};
use std::collections::{BTreeSet, VecDeque};

/// `env` framed for a socket and read back, as `dl-net` would deliver it:
/// the frame is exactly `wire_size()` bytes and decodes to `env` itself.
fn through_the_codec(env: Envelope) -> Envelope {
    let frame = dl_wire::encode_frame(&env).to_vec();
    assert_eq!(frame.len(), env.wire_size(), "{env:?}");
    let mut decoder = dl_wire::FrameDecoder::new();
    decoder.extend(&frame);
    let decoded = decoder.next_frame().expect("a valid frame");
    assert_eq!(decoded.as_ref(), Some(&env));
    assert_eq!(decoder.pending(), 0);
    decoded.expect("just compared")
}

/// Synchronous full-mesh harness: delivers every wire message each
/// tick, polling all nodes on a fixed cadence, each through the codec.
struct Mesh {
    nodes: Vec<Node<RealBlockCoder>>,
    wire: VecDeque<(NodeId, NodeId, Envelope)>,
    delivered: Vec<Vec<DeliveredBlock>>,
    /// Per-node write-ahead log, as a persistent driver would keep it.
    records: Vec<Vec<StoreRecord>>,
    /// Per node, proposals made for an epoch its propose gate had not
    /// reached yet: the dispersal window's pipelined branch, and nothing
    /// else, makes these.
    past_gate: Vec<u64>,
    /// When set, every entry-point call's effects, `(node, effects)`.
    runs: Option<Vec<(usize, Vec<NodeEffect>)>>,
    now: u64,
}

impl Mesh {
    fn new(n: usize, variant: ProtocolVariant) -> Mesh {
        let cluster = ClusterConfig::new(n);
        Mesh::with_cfg(n, NodeConfig::new(cluster, variant))
    }

    fn with_cfg(n: usize, cfg: NodeConfig) -> Mesh {
        let cluster = cfg.cluster.clone();
        Mesh {
            nodes: (0..n)
                .map(|i| Node::new(NodeId(i as u16), cfg.clone(), RealBlockCoder::new(&cluster)))
                .collect(),
            wire: VecDeque::new(),
            delivered: vec![Vec::new(); n],
            records: vec![Vec::new(); n],
            past_gate: vec![0; n],
            runs: None,
            now: 0,
        }
    }

    fn sink(&mut self, from: usize, effects: Vec<NodeEffect>) {
        if let Some(runs) = &mut self.runs {
            runs.push((from, effects.clone()));
        }
        for eff in effects {
            match eff {
                NodeEffect::Send(to, env) => self.send(NodeId(from as u16), to, env),
                NodeEffect::Deliver(d) => self.delivered[from].push(d),
                NodeEffect::Persist(rec) => self.records[from].push(rec),
                // Nothing a node handles in the call that proposes can move
                // its own gate, so the gate read here is the one it saw.
                NodeEffect::Stat(StatEvent::Proposed { epoch, .. })
                    if epoch.0 > self.nodes[from].gate() + 1 =>
                {
                    self.past_gate[from] += 1;
                }
                NodeEffect::WakeAt(_) | NodeEffect::Stat(_) | NodeEffect::PurgeReturns { .. } => {}
            }
        }
    }

    /// Put `env` on the wire from `from` to `to`, as its decoded frame.
    fn send(&mut self, from: NodeId, to: NodeId, env: Envelope) {
        self.wire.push_back((from, to, through_the_codec(env)));
    }

    fn submit(&mut self, node: usize, tx: Tx) {
        let effs = self.nodes[node].submit_tx_vec(tx, self.now);
        let effs = self.settled(node, effs);
        self.sink(node, effs);
    }

    /// `effs` of one call to `node`, and of the poll that ends its instant
    /// if it asked for one now: the mesh hands over one envelope per
    /// instant.
    fn settled(&mut self, node: usize, mut effs: Vec<NodeEffect>) -> Vec<NodeEffect> {
        if effs
            .iter()
            .any(|e| matches!(e, NodeEffect::WakeAt(at) if *at <= self.now))
        {
            effs.extend(self.nodes[node].poll_vec(self.now));
        }
        effs
    }

    /// Run `ticks` steps of `step_ms` each, delivering all in-flight
    /// messages every tick. `mute` nodes drop all input and emit
    /// nothing.
    fn run(&mut self, ticks: usize, step_ms: u64, mute: &[usize]) {
        for _ in 0..ticks {
            self.now += step_ms;
            for i in 0..self.nodes.len() {
                if mute.contains(&i) {
                    continue;
                }
                let effs = self.nodes[i].poll_vec(self.now);
                self.sink(i, effs);
            }
            while let Some((from, to, env)) = self.wire.pop_front() {
                if mute.contains(&to.idx()) {
                    continue;
                }
                let effs = self.nodes[to.idx()].handle_vec(from, env, self.now);
                let effs = self.settled(to.idx(), effs);
                self.sink(to.idx(), effs);
            }
        }
    }

    /// Per-node delivered transaction ids, in delivery order.
    fn tx_orders(&self) -> Vec<Vec<(NodeId, u64)>> {
        self.delivered
            .iter()
            .map(|ds| {
                ds.iter()
                    .filter_map(|d| d.block.as_ref())
                    .flat_map(|b| b.body.iter().map(Tx::id))
                    .collect()
            })
            .collect()
    }
}

fn all_variants() -> [ProtocolVariant; 4] {
    [
        ProtocolVariant::Dl,
        ProtocolVariant::DlCoupled,
        ProtocolVariant::HoneyBadger,
        ProtocolVariant::HoneyBadgerLink,
    ]
}

#[test]
fn single_tx_delivered_by_all_nodes_every_variant() {
    for variant in all_variants() {
        let mut mesh = Mesh::new(4, variant);
        mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
        mesh.run(600, 10, &[]);
        for (i, node) in mesh.nodes.iter().enumerate() {
            assert_eq!(
                node.stats().txs_delivered,
                1,
                "{variant:?} node {i} missed the tx"
            );
        }
        let orders = mesh.tx_orders();
        assert!(
            orders.windows(2).all(|w| w[0] == w[1]),
            "{variant:?}: delivery orders diverge"
        );
    }
}

#[test]
fn multi_node_submissions_reach_total_order() {
    for variant in all_variants() {
        let mut mesh = Mesh::new(4, variant);
        for i in 0..4usize {
            for s in 0..3u64 {
                mesh.submit(i, Tx::synthetic(NodeId(i as u16), s, 0, 64));
            }
        }
        mesh.run(1200, 10, &[]);
        let orders = mesh.tx_orders();
        assert!(
            orders.windows(2).all(|w| w[0] == w[1]),
            "{variant:?} diverged"
        );
        assert_eq!(orders[0].len(), 12, "{variant:?}: lost transactions");
    }
}

#[test]
fn dl_tolerates_one_mute_node() {
    let mut mesh = Mesh::new(4, ProtocolVariant::Dl);
    mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 200));
    mesh.submit(1, Tx::synthetic(NodeId(1), 0, 0, 200));
    mesh.run(900, 10, &[3]);
    for i in 0..3 {
        assert_eq!(mesh.nodes[i].stats().txs_delivered, 2, "node {i}");
    }
    let orders = mesh.tx_orders();
    assert!(orders[..3].windows(2).all(|w| w[0] == w[1]));
}

/// What a Byzantine proposer 3 can put on the wire for epoch 1 of a 4-node
/// cluster: the chunks of a block, chunk 1 two bytes longer than the rest,
/// under the honest Merkle root over them — every proof verifies.
fn unequal_length_dispersal(cluster: &ClusterConfig) -> Vec<Envelope> {
    let coder = RealBlockCoder::new(cluster);
    let block = Block::empty(Epoch(1), NodeId(3), vec![0; 4]);
    let enc = dl_vid::Coder::encode(&coder, &crate::coder::BlockCoder::pack(&coder, &block));
    let mut chunks: Vec<Vec<u8>> = enc
        .chunks
        .iter()
        .map(|(payload, _)| match payload {
            dl_wire::ChunkPayload::Real(b) => b.to_vec(),
            dl_wire::ChunkPayload::Synthetic { .. } => unreachable!("real coder"),
        })
        .collect();
    chunks[1].extend_from_slice(&[0xAB, 0xCD]);
    let tree = dl_crypto::MerkleTree::build(&chunks);
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let msg = VidMsg::Chunk {
                root: tree.root(),
                proof: tree.prove(i as u32),
                payload: dl_wire::ChunkPayload::Real(chunk.into()),
            };
            Envelope::vid(Epoch(1), NodeId(3), msg)
        })
        .collect()
}

#[test]
fn unequal_length_chunks_from_a_byzantine_proposer_deliver_as_none_everywhere() {
    for variant in all_variants() {
        let mut mesh = Mesh::new(4, variant);
        let cluster = mesh.nodes[0].config().cluster.clone();
        mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
        for (to, env) in unequal_length_dispersal(&cluster).into_iter().enumerate() {
            mesh.send(NodeId(3), NodeId(to as u16), env);
        }
        // No honest retriever panics, whichever `k` chunks it draws: node 1
        // holds the odd chunk itself.
        mesh.run(300, 10, &[3]);
        // Later epochs keep delivering.
        for i in 0..3 {
            mesh.submit(i, Tx::synthetic(NodeId(i as u16), 1, mesh.now, 100));
        }
        mesh.run(300, 10, &[3]);
        let slots = |i: usize| -> Vec<(u64, u16, bool)> {
            mesh.delivered[i]
                .iter()
                .map(|d| (d.epoch.0, d.proposer.0, d.block.is_some()))
                .collect()
        };
        for i in 0..3 {
            assert_eq!(slots(i), slots(0), "{variant:?}: node {i} diverged");
            assert_eq!(mesh.nodes[i].stats().txs_delivered, 4, "{variant:?}");
            assert_eq!(
                mesh.nodes[i].stats().malformed_blocks_delivered,
                1,
                "{variant:?}: node {i}"
            );
        }
        assert!(slots(0).contains(&(1, 3, false)), "{variant:?}");
    }
}

#[test]
fn nagle_delay_holds_proposal_back() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let effs = node.submit_tx_vec(Tx::synthetic(NodeId(0), 0, 0, 100), 0);
    assert!(
        !effs.iter().any(|e| matches!(e, NodeEffect::Send(..))),
        "proposed before the Nagle delay"
    );
    assert!(
        effs.iter().any(|e| matches!(e, NodeEffect::WakeAt(100))),
        "no wake-up hint for the pending proposal: {effs:?}"
    );
    assert!(!node
        .poll_vec(99)
        .iter()
        .any(|e| matches!(e, NodeEffect::Send(..))));
    let effs = node.poll_vec(100);
    assert!(
        effs.iter().any(|e| matches!(e, NodeEffect::Send(..))),
        "Nagle delay elapsed but nothing proposed"
    );
    assert_eq!(node.stats().blocks_proposed, 1);
}

#[test]
fn nagle_size_threshold_fires_immediately() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let size = cfg.propose_size;
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let effs = node.submit_tx_vec(Tx::synthetic(NodeId(0), 0, 0, size as u32), 5);
    assert!(
        effs.iter().any(|e| matches!(e, NodeEffect::Send(..))),
        "size threshold must bypass the delay"
    );
}

/// A solo node of `variant` that proposed epoch 1's block at the paper's
/// 100 ms, was handed `queued` more bytes at 120 ms, and enters epoch 2 at
/// `entry`, when every BA of epoch 1 decides 0.
fn entering_epoch_2(variant: ProtocolVariant, queued: u32, entry: u64) -> Node<RealBlockCoder> {
    let mut node = solo(NodeConfig::new(ClusterConfig::new(4), variant));
    node.submit_tx_vec(Tx::synthetic(NodeId(0), 0, 0, 100), 0);
    node.poll_vec(100);
    assert_eq!(node.stats().blocks_proposed, 1, "{variant:?}");
    node.submit_tx_vec(Tx::synthetic(NodeId(0), 1, 120, queued), 120);
    let terms: Vec<(u16, Envelope)> = (0..4)
        .flat_map(|j| {
            let term = Envelope::ba(Epoch(1), NodeId(j), BaMsg::Term { value: false });
            [(1, term.clone()), (2, term)]
        })
        .collect();
    instant(&mut node, &terms, entry);
    assert_eq!(node.next_propose_epoch(), Epoch(2), "{variant:?}");
    node
}

/// Polls `node` at `now` and returns how many blocks it has proposed.
fn proposed_by(node: &mut Node<RealBlockCoder>, now: u64) -> u64 {
    node.poll_vec(now);
    node.stats().blocks_proposed
}

/// Bytes of roots and proof paths one dispersal sends at N = 4:
/// 4 · 32 · (1 + 2).
const EPOCH_OVERHEAD_N4: u32 = 384;

#[test]
fn an_epochs_worth_queued_proposes_at_entry_once_the_delay_passed_since_our_last_proposal() {
    for variant in [ProtocolVariant::Dl, ProtocolVariant::DlCoupled] {
        let node = entering_epoch_2(variant, EPOCH_OVERHEAD_N4, 250);
        assert_eq!(node.stats().blocks_proposed, 2, "{variant:?}");
    }
}

#[test]
fn less_than_an_epochs_worth_waits_for_entry_plus_the_delay() {
    for variant in [ProtocolVariant::Dl, ProtocolVariant::DlCoupled] {
        let mut node = entering_epoch_2(variant, EPOCH_OVERHEAD_N4 - 1, 250);
        assert_eq!(node.stats().blocks_proposed, 1, "{variant:?}");
        assert_eq!(proposed_by(&mut node, 349), 1, "{variant:?}");
        assert_eq!(proposed_by(&mut node, 350), 2, "{variant:?}");
    }
}

#[test]
fn a_peers_chunk_lets_a_small_queue_propose_once_the_delay_passed_since_our_last_proposal() {
    let mut node = entering_epoch_2(ProtocolVariant::Dl, 100, 150);
    let effs = instant(&mut node, &[(1, chunk_in(2, 1, 0).0)], 160);
    assert!(
        effs.iter().any(|e| matches!(e, NodeEffect::WakeAt(200))),
        "no wake-up at our last proposal + 100 ms: {effs:?}"
    );
    assert_eq!(proposed_by(&mut node, 199), 1);
    assert_eq!(proposed_by(&mut node, 200), 2);
}

#[test]
fn honeybadger_proposes_at_entry_plus_the_delay_whatever_is_queued() {
    for variant in [
        ProtocolVariant::HoneyBadger,
        ProtocolVariant::HoneyBadgerLink,
    ] {
        let mut node = entering_epoch_2(variant, EPOCH_OVERHEAD_N4, 250);
        instant(&mut node, &[(1, chunk_in(2, 1, 0).0)], 260);
        assert_eq!(proposed_by(&mut node, 349), 1, "{variant:?}");
        assert_eq!(proposed_by(&mut node, 350), 2, "{variant:?}");
    }
}

#[test]
fn idle_node_does_not_propose() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    for t in [0, 100, 1000, 10_000] {
        assert!(node.poll_vec(t).is_empty(), "idle node acted at t={t}");
    }
    assert_eq!(node.stats().blocks_proposed, 0);
}

#[test]
fn far_future_envelope_dropped() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let lookahead = cfg.epoch_lookahead;
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let env = Envelope::ba(
        Epoch(lookahead + 2),
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    assert!(node.handle_vec(NodeId(1), env, 0).is_empty());
    // In-range envelopes are processed (they create epoch state).
    let env = Envelope::ba(
        Epoch(1),
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    node.handle_vec(NodeId(1), env, 0);
    assert_eq!(node.agreement_frontier(), Epoch(0));
}

#[test]
fn chunk_from_non_proposer_rejected() {
    let cluster = ClusterConfig::new(4);
    let coder = RealBlockCoder::new(&cluster);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    // A valid chunk for VID^1_2, but sent by node 3: must be ignored.
    let block = Block::empty(Epoch(1), NodeId(2), vec![0; 4]);
    let packed = crate::coder::BlockCoder::pack(&coder, &block);
    let enc = dl_vid::Coder::encode(&coder, &packed);
    let (payload, proof) = enc.chunks[0].clone();
    let env = Envelope::vid(
        Epoch(1),
        NodeId(2),
        VidMsg::Chunk {
            root: enc.root,
            proof,
            payload,
        },
    );
    assert!(node.handle_vec(NodeId(3), env.clone(), 0).is_empty());
    // The same chunk from its proposer is accepted (GotChunk goes out
    // once the instant is settled).
    let mut effs = node.handle_vec(NodeId(2), env, 0);
    effs.extend(node.poll_vec(0));
    assert!(effs.iter().any(|e| matches!(e, NodeEffect::Send(..))));
}

#[test]
fn garbage_chunk_with_wrong_proof_root_is_rejected() {
    // Regression for the `GarbageChunks` adversary: a structurally valid
    // chunk advertised under a root its Merkle proof cannot verify
    // against must produce no acknowledgement and no durable state.
    let cluster = ClusterConfig::new(4);
    let coder = RealBlockCoder::new(&cluster);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let block = Block::empty(Epoch(1), NodeId(2), vec![0; 4]);
    let packed = crate::coder::BlockCoder::pack(&coder, &block);
    let enc = dl_vid::Coder::encode(&coder, &packed);
    let (payload, proof) = enc.chunks[0].clone();
    let garbage = Envelope::vid(
        Epoch(1),
        NodeId(2),
        VidMsg::Chunk {
            root: Hash::digest(b"not-the-real-root"),
            proof: proof.clone(),
            payload: payload.clone(),
        },
    );
    // `Vec<NodeEffect>` reifies Persist effects, so "nothing but the
    // epoch's propose timer" covers both the wire (no GotChunk vote)
    // and the WAL (no Chunk record): the garbage polluted nothing.
    let effs = node.handle_vec(NodeId(2), garbage, 0);
    assert!(
        effs.iter().all(|e| matches!(e, NodeEffect::WakeAt(_))),
        "garbage chunk produced effects: {effs:?}"
    );
    // The genuine chunk is still accepted afterwards — the rejected
    // garbage did not poison the (epoch, index) slot.
    let real = Envelope::vid(
        Epoch(1),
        NodeId(2),
        VidMsg::Chunk {
            root: enc.root,
            proof,
            payload,
        },
    );
    let mut effs = node.handle_vec(NodeId(2), real, 0);
    effs.extend(node.poll_vec(0));
    assert!(effs.iter().any(|e| matches!(e, NodeEffect::Send(..))));
    assert!(effs
        .iter()
        .any(|e| matches!(e, NodeEffect::Persist(StoreRecord::Chunk { .. }))));
}

#[test]
fn absurd_future_sync_outcome_is_ignored() {
    // A node in catch-up must not let a peer seed tally state for
    // epochs far beyond its lookahead window.
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let lookahead = cfg.epoch_lookahead;
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    node.restore(&[StoreRecord::EpochDelivered { epoch: Epoch(1) }]);
    assert!(node.sync_active());
    // Drain the post-restore catch-up kick (sync requests + timers) so
    // the garbage below is judged on its own effects.
    node.poll_vec(0);
    // Absurd future epoch, well-formed vector.
    let env = Envelope::sync(
        Epoch(1_000_000_000 + lookahead),
        SyncMsg::Outcome {
            committed: vec![true; 4],
        },
    );
    let effs = node.handle_vec(NodeId(1), env, 0);
    assert!(
        effs.iter().all(|e| matches!(e, NodeEffect::WakeAt(_))),
        "absurd-future outcome produced effects: {effs:?}"
    );
    // In-range epoch, wrong-length vector (claims a 7-node cluster).
    let env = Envelope::sync(
        Epoch(2),
        SyncMsg::Outcome {
            committed: vec![true; 7],
        },
    );
    let effs = node.handle_vec(NodeId(1), env, 0);
    assert!(
        effs.iter().all(|e| matches!(e, NodeEffect::WakeAt(_))),
        "malformed outcome produced effects: {effs:?}"
    );
    assert!(node.sync_active(), "sync aborted by garbage outcome");
    assert_eq!(node.agreement_frontier(), Epoch(0));
}

#[test]
fn delivered_blocks_report_epoch_and_proposer() {
    let mut mesh = Mesh::new(4, ProtocolVariant::Dl);
    mesh.submit(2, Tx::synthetic(NodeId(2), 0, 0, 50));
    mesh.run(600, 10, &[]);
    let with_tx: Vec<&DeliveredBlock> = mesh.delivered[0]
        .iter()
        .filter(|d| d.block.as_ref().is_some_and(|b| !b.body.is_empty()))
        .collect();
    assert_eq!(with_tx.len(), 1);
    assert_eq!(with_tx[0].proposer, NodeId(2));
    assert_eq!(with_tx[0].epoch, Epoch(1));
}

#[test]
fn epoch_gc_does_not_break_the_pipeline() {
    // Shrink the history window so garbage collection kicks in after a
    // handful of epochs, then keep the cluster busy long enough to
    // cross it many times: every transaction must still deliver.
    let cluster = ClusterConfig::new(4);
    let mut cfg = NodeConfig::new(cluster, ProtocolVariant::Dl);
    cfg.epoch_lookahead = 2;
    let mut mesh = Mesh::with_cfg(4, cfg);
    let mut submitted = 0u64;
    for round in 0..24u64 {
        mesh.submit(
            (round % 4) as usize,
            Tx::synthetic(NodeId((round % 4) as u16), round, mesh.now, 80),
        );
        submitted += 1;
        mesh.run(25, 10, &[]); // 250 ms per round: at least one epoch
    }
    mesh.run(400, 10, &[]);
    for (i, node) in mesh.nodes.iter().enumerate() {
        assert_eq!(node.stats().txs_delivered, submitted, "node {i}");
        assert!(
            node.delivered_frontier().0 > cfg_window_epochs(),
            "node {i} did not cross the GC horizon (frontier {:?})",
            node.delivered_frontier()
        );
    }
    let orders = mesh.tx_orders();
    assert!(orders.windows(2).all(|w| w[0] == w[1]));
}

/// Epochs a `epoch_lookahead = 2` window must exceed for the GC test
/// to have actually collected something.
fn cfg_window_epochs() -> u64 {
    3
}

#[test]
fn gc_collected_epoch_cannot_be_resurrected_by_stray_envelopes() {
    // Run a cluster past the GC horizon, then hit one node with
    // Byzantine traffic addressed to a fully-collected epoch: BA
    // votes, VID dispersal votes, chunk pushes and retrieval
    // requests. None of it may recreate epoch state, produce wire
    // effects, or move the frontiers — a resurrected epoch would be
    // unbounded-memory under attacker control.
    let cluster = ClusterConfig::new(4);
    let mut cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    cfg.epoch_lookahead = 2;
    let mut mesh = Mesh::with_cfg(4, cfg);
    for round in 0..12u64 {
        mesh.submit(
            (round % 4) as usize,
            Tx::synthetic(NodeId((round % 4) as u16), round, mesh.now, 80),
        );
        mesh.run(25, 10, &[]);
    }
    mesh.run(400, 10, &[]);
    let now = mesh.now;
    let node = &mut mesh.nodes[0];
    let dead = 1u64;
    assert!(
        node.gc_horizon > dead,
        "cluster never crossed the GC horizon (horizon {})",
        node.gc_horizon
    );
    assert!(
        !node.epochs.contains(dead),
        "epoch {dead} was not collected — the probe below would not test resurrection"
    );
    let frontier = node.delivered_frontier();
    let epochs_before = node.epochs.len();
    let root = Hash::digest(b"resurrection-probe");
    let stray = [
        Envelope::ba(
            Epoch(dead),
            NodeId(2),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        ),
        Envelope::ba(Epoch(dead), NodeId(2), BaMsg::Term { value: true }),
        Envelope::vid(Epoch(dead), NodeId(2), VidMsg::GotChunk { root }),
        Envelope::vid(Epoch(dead), NodeId(2), VidMsg::Ready { root }),
        Envelope::vid(Epoch(dead), NodeId(2), VidMsg::RequestChunk),
    ];
    for env in stray {
        let effs = node.handle_vec(NodeId(2), env, now);
        assert!(
            !effs
                .iter()
                .any(|e| matches!(e, NodeEffect::Send(..) | NodeEffect::Deliver(..))),
            "stray envelope for a collected epoch produced wire effects"
        );
    }
    assert_eq!(
        node.epochs.len(),
        epochs_before,
        "stray traffic resurrected per-epoch state"
    );
    assert!(!node.epochs.contains(dead));
    assert_eq!(node.delivered_frontier(), frontier);
}

#[test]
fn node_constructed_mid_run_still_batches() {
    // A node whose first event arrives at t=5000 must not treat the
    // Nagle delay as already expired.
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let effs = node.submit_tx_vec(Tx::synthetic(NodeId(0), 0, 5000, 100), 5000);
    assert!(
        !effs.iter().any(|e| matches!(e, NodeEffect::Send(..))),
        "first-ever submit bypassed the Nagle delay"
    );
    assert!(effs.iter().any(|e| matches!(e, NodeEffect::WakeAt(5100))));
    assert!(node
        .poll_vec(5100)
        .iter()
        .any(|e| matches!(e, NodeEffect::Send(..))));
}

#[test]
fn stats_track_proposals_and_epochs() {
    let mut mesh = Mesh::new(4, ProtocolVariant::Dl);
    mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
    mesh.run(600, 10, &[]);
    let s = *mesh.nodes[0].stats();
    assert!(s.blocks_proposed >= 1);
    assert!(s.epochs_delivered >= 1);
    assert!(s.msgs_sent > 0 && s.bytes_sent > 0);
    assert_eq!(mesh.nodes[0].delivered_frontier(), Epoch(1));
}

#[test]
fn restarted_node_replays_its_log_and_catches_up() {
    for variant in [ProtocolVariant::Dl, ProtocolVariant::HoneyBadger] {
        let cluster = ClusterConfig::new(4);
        let cfg = NodeConfig::new(cluster.clone(), variant);
        let mut mesh = Mesh::with_cfg(4, cfg.clone());
        // Phase A: normal operation, at least one epoch delivered by
        // everyone (all four write-ahead logs fill up).
        mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
        mesh.run(60, 10, &[]);
        assert!(mesh.nodes[3].delivered_frontier().0 >= 1);
        let frontier_at_crash = mesh.nodes[3].delivered_frontier();
        let delivered_at_crash = mesh.delivered[3].len();
        // Phase B: node 3 crashes (muted: drops all input, emits
        // nothing). The other three keep committing epochs without it.
        mesh.submit(1, Tx::synthetic(NodeId(1), 1, mesh.now, 100));
        mesh.run(60, 10, &[3]);
        mesh.submit(2, Tx::synthetic(NodeId(2), 2, mesh.now, 100));
        mesh.run(60, 10, &[3]);
        assert!(
            mesh.nodes[0].delivered_frontier() > frontier_at_crash,
            "survivors made no progress during the outage"
        );
        // Phase C: restart from the write-ahead log. The replacement
        // node knows nothing except what node 3 persisted.
        let mut fresh = Node::new(NodeId(3), cfg.clone(), RealBlockCoder::new(&cluster));
        fresh.restore(&mesh.records[3]);
        assert_eq!(fresh.delivered_frontier(), frontier_at_crash);
        assert!(fresh.sync_active());
        mesh.nodes[3] = fresh;
        mesh.run(200, 10, &[]);
        // The restarted node caught up: same frontier, same total
        // order, and no block it delivered before the crash was
        // re-delivered after it.
        assert_eq!(
            mesh.nodes[3].delivered_frontier(),
            mesh.nodes[0].delivered_frontier(),
            "{variant:?}: restarted node did not catch up"
        );
        assert!(
            !mesh.nodes[3].sync_active(),
            "{variant:?}: catch-up sync never terminated"
        );
        let orders = mesh.tx_orders();
        assert_eq!(orders[3], orders[0], "{variant:?}: total order diverged");
        assert_eq!(orders[3].len(), 3, "{variant:?}: a transaction was lost");
        let epochs_seen: Vec<(Epoch, NodeId)> = mesh.delivered[3]
            .iter()
            .map(|d| (d.epoch, d.proposer))
            .collect();
        let mut deduped = epochs_seen.clone();
        deduped.dedup();
        assert_eq!(
            epochs_seen, deduped,
            "{variant:?}: a block was re-delivered"
        );
        assert!(mesh.delivered[3].len() > delivered_at_crash);
    }
}

#[test]
fn the_codec_carries_rootless_readys_bare_chunks_and_proven_requests() {
    // A DL mesh whose node 3 misses epochs and restarts from its log: every
    // envelope goes through `through_the_codec`. The live nodes send their
    // `Ready`s root-less and fetch bare chunks; the restarted node fetches
    // what it missed with proofs.
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut mesh = Mesh::with_cfg(4, cfg.clone());
    mesh.runs = Some(Vec::new());
    mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
    mesh.run(60, 10, &[]);
    mesh.submit(1, Tx::synthetic(NodeId(1), 1, mesh.now, 100));
    mesh.run(60, 10, &[3]);
    let mut fresh = Node::new(NodeId(3), cfg, RealBlockCoder::new(&cluster));
    fresh.restore(&mesh.records[3]);
    mesh.nodes[3] = fresh;
    mesh.run(200, 10, &[]);
    let orders = mesh.tx_orders();
    assert!(orders.iter().all(|o| *o == orders[0] && o.len() == 2));
    let runs = mesh.runs.take().expect("recorded");
    let carried = |want: fn(&VidMsg) -> bool, by: fn(usize) -> bool| {
        runs.iter().any(|(node, effs)| {
            by(*node)
                && effs.iter().any(
                    |e| matches!(e, NodeEffect::Send(_, env) if matches!(&env.payload, ProtoMsg::Vid(m) if want(m))),
                )
        })
    };
    let live = |node: usize| node != 3;
    let anyone = |_: usize| true;
    assert!(carried(|m| matches!(m, VidMsg::ReadyAsGot), live));
    assert!(carried(|m| matches!(m, VidMsg::RequestChunk), live));
    assert!(carried(|m| matches!(m, VidMsg::ReturnBare { .. }), live));
    assert!(carried(
        |m| matches!(m, VidMsg::RequestProven),
        |node| node == 3
    ));
    assert!(carried(|m| matches!(m, VidMsg::ReturnChunk { .. }), anyone));
}

#[test]
fn restore_of_an_empty_log_is_a_fresh_start() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    node.restore(&[]);
    assert!(!node.sync_active());
    assert_eq!(node.delivered_frontier(), Epoch(0));
}

#[test]
fn cancel_emits_a_purge_hint_for_the_canceller() {
    let mut mesh = Mesh::new(4, ProtocolVariant::Dl);
    mesh.submit(0, Tx::synthetic(NodeId(0), 0, 0, 100));
    mesh.run(60, 10, &[]);
    let now = mesh.now;
    // Peer 2 cancels the retrieval of block (epoch 1, proposer 0):
    // node 1 must tell its driver to drop queued ReturnChunks to 2.
    let effs = mesh.nodes[1].handle_vec(
        NodeId(2),
        Envelope::vid(Epoch(1), NodeId(0), VidMsg::Cancel),
        now,
    );
    assert!(effs.contains(&NodeEffect::PurgeReturns {
        to: NodeId(2),
        epoch: Epoch(1),
        index: NodeId(0),
    }));
}

// ---------------------------------------------------------------------------
// Targeted retrieval
// ---------------------------------------------------------------------------

/// The remote peers `effs` ask for chunks of one block, in request order.
fn requested(effs: &[NodeEffect]) -> Vec<usize> {
    effs.iter()
        .filter_map(|e| match e {
            NodeEffect::Send(to, env)
                if matches!(env.payload, ProtoMsg::Vid(VidMsg::RequestChunk)) =>
            {
                Some(to.idx())
            }
            _ => None,
        })
        .collect()
}

/// Run an honest mesh until node 0 starts its first retrieval, crash the
/// `f` peers that retrieval ranked first at that very moment, and run on.
/// Returns the crashed set.
fn crash_first_choices_of_node_0(mesh: &mut Mesh, ticks: usize) -> Vec<usize> {
    let f = mesh.nodes[0].config().cluster.f;
    let mut mute: Vec<usize> = Vec::new();
    for _ in 0..ticks {
        mesh.now += 10;
        for i in 0..mesh.nodes.len() {
            if !mute.contains(&i) {
                let effs = mesh.nodes[i].poll_vec(mesh.now);
                mesh.sink(i, effs);
            }
        }
        while let Some((from, to, env)) = mesh.wire.pop_front() {
            if mute.contains(&to.idx()) {
                continue;
            }
            let effs = mesh.nodes[to.idx()].handle_vec(from, env, mesh.now);
            if to.idx() == 0 && mute.is_empty() {
                let asked = requested(&effs);
                if !asked.is_empty() {
                    // Everything node 0 asks in one step belongs to the
                    // retrievals it started there; the first k − 1 + h
                    // requests are the first retrieval's, best-ranked first.
                    mute = asked[..f].to_vec();
                }
            }
            mesh.sink(to.idx(), effs);
        }
    }
    mute
}

#[test]
fn retrieval_survives_its_f_first_choices_crashing() {
    for n in [7usize, 16] {
        let mut mesh = Mesh::new(n, ProtocolVariant::Dl);
        for i in 0..n {
            mesh.submit(i, Tx::synthetic(NodeId(i as u16), 0, 0, 200));
        }
        let crashed = crash_first_choices_of_node_0(&mut mesh, 400);
        let f = (n - 1) / 3;
        assert_eq!(crashed.len(), f, "N={n}: node 0 never started a retrieval");
        // k − 1 + h − f remote answers plus our own chunk are fewer than k:
        // that retrieval can only have finished by escalating.
        let s = *mesh.nodes[0].stats();
        assert!(s.retrievals_escalated > 0, "N={n}: {s:?}");
        assert!(s.retrievals_escalated <= s.retrievals_started);
        let orders = mesh.tx_orders();
        for i in (0..n).filter(|i| !crashed.contains(i)) {
            assert_eq!(orders[i].len(), n, "N={n}: node {i} lost transactions");
            assert_eq!(orders[i], orders[0], "N={n}: node {i} diverged");
            // Every request was answered or cancelled: nobody is owed.
            assert!(
                mesh.nodes[i].chunk_requests_owed.iter().all(|&c| c == 0),
                "N={n}: node {i} ledger {:?}",
                mesh.nodes[i].chunk_requests_owed
            );
        }
    }
}

#[test]
fn honest_mesh_never_escalates_and_asks_k_plus_hedge() {
    let n = 7;
    let mut mesh = Mesh::new(n, ProtocolVariant::Dl);
    for i in 0..n {
        mesh.submit(i, Tx::synthetic(NodeId(i as u16), 0, 0, 200));
    }
    mesh.run(300, 10, &[]);
    for node in &mesh.nodes {
        let s = node.stats();
        assert_eq!(s.txs_delivered, n as u64);
        assert_eq!(s.retrievals_escalated, 0);
        // k = 3 at N = 7: own server + k − 1 + 1 peers per retrieval.
        assert_eq!(s.chunk_requests_sent, 4 * s.retrievals_started);
        assert!(node.chunk_requests_owed.iter().all(|&c| c == 0));
    }
}

// ---------------------------------------------------------------------------
// The backlog-triggered dispersal window
// ---------------------------------------------------------------------------

/// Submit `batches` full Nagle batches to `node` at `t0, t0 + 1, …` and
/// return the write-ahead records it emitted.
fn submit_batches(
    node: &mut Node<RealBlockCoder>,
    first_seq: u64,
    batches: u64,
    t0: u64,
) -> Vec<StoreRecord> {
    let size = node.config().propose_size as u32;
    let mut log = Vec::new();
    for s in first_seq..first_seq + batches {
        let now = t0 + s;
        for eff in node.submit_tx_vec(Tx::synthetic(node.id(), s, now, size), now) {
            if let NodeEffect::Persist(rec) = eff {
                log.push(rec);
            }
        }
    }
    log
}

/// A solo node: no peer ever answers, so its gate never moves and every
/// proposal after the first can only come from the window.
fn solo(cfg: NodeConfig) -> Node<RealBlockCoder> {
    let cluster = cfg.cluster.clone();
    Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster))
}

#[test]
fn full_batches_open_epochs_past_the_gate_up_to_the_byte_budget() {
    let cluster = ClusterConfig::new(4);
    for variant in [ProtocolVariant::Dl, ProtocolVariant::DlCoupled] {
        let mut node = solo(NodeConfig::new(cluster.clone(), variant));
        let size = node.config().propose_size as u64;
        submit_batches(&mut node, 0, 2, 0);
        assert_eq!(
            node.stats().blocks_proposed,
            2,
            "{variant:?}: d = 1: a waiting batch must open the next epoch at once"
        );
        assert_eq!(node.agreement_frontier(), Epoch(0), "the gate never moved");
        submit_batches(&mut node, 2, 1, 0);
        assert_eq!(
            node.stats().blocks_proposed,
            2,
            "{variant:?}: d = 2 must wait for a second batch"
        );
        submit_batches(&mut node, 3, 1, 0);
        assert_eq!(node.stats().blocks_proposed, 3, "{variant:?}: d = 2");
        assert_eq!(node.inflight_bytes, 4 * size, "two batches in one block");
        // d = 3 and d = 4 open on three and four batches: 1 + 1 + 2 + 3 + 4
        // = 11 in flight, past the budget of 8, and the window stalls.
        submit_batches(&mut node, 4, 2 * WINDOW_BUDGET_BATCHES, 0);
        assert_eq!(
            node.stats().blocks_proposed,
            5,
            "{variant:?}: the byte budget must stall the window"
        );
        assert_eq!(node.inflight_bytes, 11 * size);
        assert_eq!(node.stats().empty_blocks_proposed, 0);
    }
}

#[test]
fn a_partial_batch_waits_for_the_gate_however_long() {
    // One byte short of a batch behind an outstanding proposal: the Nagle
    // delay may pass any number of times, the next epoch opens only when
    // the gate moves (never, here) — or when the byte arrives.
    let mut node = solo(NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl));
    let size = node.config().propose_size as u32;
    submit_batches(&mut node, 0, 1, 0);
    node.submit_tx_vec(Tx::synthetic(NodeId(0), 1, 1, size - 1), 1);
    for t in 1..=10 {
        node.poll_vec(t * crate::PROPOSE_DELAY_MS);
    }
    assert_eq!(node.stats().blocks_proposed, 1, "opened on the delay");
    node.submit_tx_vec(Tx::synthetic(NodeId(0), 2, 1001, 1), 1001);
    assert_eq!(node.stats().blocks_proposed, 2, "a full batch must open");
}

#[test]
fn window_depth_is_half_the_admission_horizon() {
    // Depth 4 binds before the 8-batch budget: epochs 1..=4 open, a peer
    // whose frontier trails ours by 4 still admits all of them, and the
    // fifth waits for the gate.
    let mut cfg = NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl);
    cfg.epoch_lookahead = 8;
    let mut node = solo(cfg);
    submit_batches(&mut node, 0, 8, 0);
    assert_eq!(node.stats().blocks_proposed, 4);
    assert_eq!(node.next_propose_epoch(), Epoch(4));
    // A horizon too small to halve leaves the gated schedule only.
    let mut cfg = NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl);
    cfg.epoch_lookahead = 2;
    let mut node = solo(cfg);
    submit_batches(&mut node, 0, 8, 0);
    assert_eq!(node.stats().blocks_proposed, 1);
}

#[test]
fn lockstep_variants_never_open_an_epoch_past_the_gate() {
    let cluster = ClusterConfig::new(4);
    for variant in [
        ProtocolVariant::HoneyBadger,
        ProtocolVariant::HoneyBadgerLink,
    ] {
        let mut node = solo(NodeConfig::new(cluster.clone(), variant));
        submit_batches(&mut node, 0, 8, 0);
        assert_eq!(node.stats().blocks_proposed, 1, "{variant:?} pipelined");
    }
}

#[test]
fn an_epoch_decided_without_our_block_gets_an_empty_filler() {
    // Three nodes run two epochs while node 3 hears everything and says
    // nothing in time: both epochs decide without a block of its. When it
    // is polled again it must disperse a (late, empty) block for each —
    // otherwise `V[3]` has a hole at every peer and no later block of
    // node 3 that misses its commit can ever be linked — and the
    // transaction it was handed meanwhile rides in the next open epoch.
    for variant in [ProtocolVariant::Dl, ProtocolVariant::HoneyBadgerLink] {
        let mut mesh = Mesh::new(4, variant);
        for round in 0..2u64 {
            mesh.submit(0, Tx::synthetic(NodeId(0), round, mesh.now, 100));
            // Node 3 receives (its gate moves) but is never polled, so its
            // Nagle delay never fires.
            for _ in 0..30 {
                mesh.now += 10;
                for i in 0..3 {
                    let effs = mesh.nodes[i].poll_vec(mesh.now);
                    mesh.sink(i, effs);
                }
                while let Some((from, to, env)) = mesh.wire.pop_front() {
                    let effs = mesh.nodes[to.idx()].handle_vec(from, env, mesh.now);
                    mesh.sink(to.idx(), effs);
                }
            }
        }
        let late = &mesh.nodes[3];
        assert!(late.gate() >= 2, "{variant:?}: the cluster did not move on");
        let s = *late.stats();
        assert_eq!(
            (s.blocks_proposed, s.empty_blocks_proposed),
            (late.gate(), late.gate()),
            "{variant:?}: one empty filler per epoch decided without us"
        );
        mesh.submit(3, Tx::synthetic(NodeId(3), 0, mesh.now, 100));
        mesh.run(300, 10, &[]);
        for (i, node) in mesh.nodes.iter().enumerate() {
            assert_eq!(node.stats().txs_delivered, 3, "{variant:?} node {i}");
            // No hole: every peer's completion prefix for node 3 reaches
            // its last proposal.
            assert_eq!(
                node.trackers[3].prefix(),
                mesh.nodes[3].proposed_up_to,
                "{variant:?} node {i}: V[3] has a hole"
            );
        }
    }
}

#[test]
fn lagging_dl_coupled_node_does_not_spray_empty_window_epochs() {
    // Agreement two epochs ahead of delivery: DL-Coupled proposes empty
    // blocks until retrieval catches up. A batch that may not ride in the
    // block must not open window epochs either — each would be an empty
    // block, with the batch still queued to trigger the next one.
    let mut node = solo(NodeConfig::new(
        ClusterConfig::new(4),
        ProtocolVariant::DlCoupled,
    ));
    node.agreement_frontier = 2;
    node.proposed_up_to = 2;
    submit_batches(&mut node, 0, 3, 0);
    let s = node.stats();
    assert_eq!((s.blocks_proposed, s.empty_blocks_proposed), (1, 1));
}

/// The rule is relative to `propose_size`: a small batch keeps the real
/// coder's share of these mesh runs negligible in debug builds.
fn small_batch_cfg(variant: ProtocolVariant) -> NodeConfig {
    let mut cfg = NodeConfig::new(ClusterConfig::new(4), variant);
    cfg.propose_size = 4_000;
    cfg
}

/// What a [`loaded_mesh`] run left behind.
#[derive(Debug, PartialEq)]
struct MeshRun {
    /// Every node's counters: messages, bytes, proposals, deliveries.
    stats: Vec<NodeStats>,
    orders: Vec<Vec<(NodeId, u64)>>,
    past_gate: Vec<u64>,
}

/// Drive a 4-node mesh through `rounds` rounds in which every node is
/// handed a full Nagle batch — proposed on the spot — and, before any
/// answer to that proposal can arrive, a second transaction of
/// `behind_bytes`.
fn loaded_mesh(cfg: NodeConfig, rounds: u64, behind_bytes: u32) -> MeshRun {
    let full = cfg.propose_size as u32;
    let mut mesh = Mesh::with_cfg(4, cfg);
    for s in 0..rounds {
        for i in 0..4usize {
            let id = NodeId(i as u16);
            mesh.submit(i, Tx::synthetic(id, 2 * s, mesh.now, full));
            mesh.submit(i, Tx::synthetic(id, 2 * s + 1, mesh.now, behind_bytes));
        }
        mesh.run(30, 10, &[]);
    }
    mesh.run(600, 10, &[]);
    MeshRun {
        stats: mesh.nodes.iter().map(|n| *n.stats()).collect(),
        orders: mesh.tx_orders(),
        past_gate: mesh.past_gate,
    }
}

#[test]
fn below_a_full_batch_the_schedule_is_the_gated_one() {
    // The old window-of-one schedule-equality test, now a property
    // of load: with less than `propose_size` queued behind an outstanding
    // proposal, no node proposes past its gate, and not one message, byte,
    // proposal or delivery differs from a configuration whose depth bound
    // (half of a 3-epoch horizon: one epoch, the gate's own) leaves the
    // window nothing to open.
    for variant in [ProtocolVariant::Dl, ProtocolVariant::DlCoupled] {
        let cfg = small_batch_cfg(variant);
        let mut gated = cfg.clone();
        gated.epoch_lookahead = 3;
        let behind = cfg.propose_size as u32 - 1;
        let free = loaded_mesh(cfg, 3, behind);
        assert_eq!(free.past_gate, [0; 4], "{variant:?} proposed past its gate");
        assert_eq!(free.orders[0].len(), 24, "{variant:?} lost transactions");
        assert_eq!(free, loaded_mesh(gated, 3, behind), "{variant:?}");
    }
}

#[test]
fn all_variants_reach_total_order_under_full_batch_bursts() {
    for variant in all_variants() {
        let cfg = small_batch_cfg(variant);
        let behind = cfg.propose_size as u32;
        let pipelines = !variant.retrieve_then_vote();
        let MeshRun {
            orders, past_gate, ..
        } = loaded_mesh(cfg, 3, behind);
        assert!(
            orders.windows(2).all(|w| w[0] == w[1]),
            "{variant:?} diverged under bursts"
        );
        assert_eq!(orders[0].len(), 24, "{variant:?}: lost transactions");
        // Every DL node took the pipelined branch in every round; no
        // lockstep node ever did.
        let expect = if pipelines { 3 } else { 0 };
        assert_eq!(past_gate, [expect; 4], "{variant:?}");
    }
}

#[test]
fn restore_rebuilds_the_window_byte_ledger_and_zeroes_the_retrieval_ledger() {
    let cfg = NodeConfig::new(ClusterConfig::new(4), ProtocolVariant::Dl);
    let size = cfg.propose_size as u64;
    let mut node = solo(cfg.clone());
    // Epochs 1..=5 open on 1, 1, 2, 3 and 4 batches: 11 in flight, past
    // the budget of 8.
    let mut log = submit_batches(&mut node, 0, 11, 0);
    assert_eq!(node.stats().blocks_proposed, 5);
    assert!(node.inflight_bytes >= WINDOW_BUDGET_BATCHES * size);
    // Restored past the budget: the undecided proposals are still
    // outstanding, so batches enough to walk past every one of them (d
    // batches for depth d) open nothing.
    let mut fresh = solo(cfg.clone());
    fresh.restore(&log);
    assert_eq!(fresh.inflight_bytes, 11 * size);
    submit_batches(&mut fresh, 100, 5, 100);
    assert_eq!(
        fresh.stats().blocks_proposed,
        0,
        "restart forgot the budget"
    );
    assert!(fresh.chunk_requests_owed.iter().all(|&c| c == 0));
    // The same log with epochs 1..=4 decided: the restored agreement
    // frontier covers four ledger entries (7 batches), the first `advance`
    // drains them, and the node — now under the budget — opens the epoch
    // after its last on one batch (d = 1), and the next only on two.
    log.extend((1..=4).flat_map(|e| {
        (0..4).map(move |j| StoreRecord::Decided {
            epoch: Epoch(e),
            index: NodeId(j),
            value: true,
        })
    }));
    let mut fresh = solo(cfg);
    fresh.restore(&log);
    assert_eq!(fresh.agreement_frontier(), Epoch(4));
    assert_eq!(fresh.inflight_bytes, 11 * size, "not yet drained");
    submit_batches(&mut fresh, 100, 2, 100);
    assert_eq!(fresh.inflight_bytes, 5 * size, "drained seven, added one");
    assert_eq!(fresh.stats().blocks_proposed, 1);
    assert_eq!(fresh.next_propose_epoch(), Epoch(6));
}

// ---------------------------------------------------------------------------
// The certainty trigger: fetch a block the moment its delivery is certain
// ---------------------------------------------------------------------------

/// Node 0 of a 4-node cluster (f = 1, k = 2) with every peer message
/// forged, so a test decides which dispersals complete, what each BA
/// decides and when chunks come back. The clock stands still: the node
/// never proposes on its own.
struct Driven {
    node: Node<RealBlockCoder>,
    coder: RealBlockCoder,
    /// `(epoch, proposer, via_link)` of every delivery, in order.
    delivered: Vec<(u64, u16, bool)>,
}

impl Driven {
    fn new(variant: ProtocolVariant) -> Driven {
        let cluster = ClusterConfig::new(4);
        Driven {
            node: solo(NodeConfig::new(cluster.clone(), variant)),
            coder: RealBlockCoder::new(&cluster),
            delivered: Vec::new(),
        }
    }

    fn encode(&self, block: &Block) -> dl_vid::EncodedBlock {
        dl_vid::Coder::encode(
            &self.coder,
            &crate::coder::BlockCoder::pack(&self.coder, block),
        )
    }

    fn feed(&mut self, envs: impl IntoIterator<Item = (u16, Envelope)>) -> Vec<NodeEffect> {
        let effs: Vec<NodeEffect> = envs
            .into_iter()
            .flat_map(|(from, env)| self.node.handle_vec(NodeId(from), env, 0))
            .collect();
        self.delivered.extend(effs.iter().filter_map(|e| match e {
            NodeEffect::Deliver(b) => Some((b.epoch.0, b.proposer.0, b.via_link)),
            _ => None,
        }));
        effs
    }

    /// `2f + 1` `Ready`s: the block's dispersal completes locally.
    fn complete(&mut self, block: &Block) -> Vec<NodeEffect> {
        let (epoch, index) = (block.header.epoch, block.header.proposer);
        let root = self.encode(block).root;
        self.feed((1..=3).map(|p| (p, Envelope::vid(epoch, index, VidMsg::Ready { root }))))
    }

    /// `f + 1` `Term`s: `BA^epoch_index` decides `value`.
    fn decide(&mut self, epoch: u64, index: u16, value: bool) -> Vec<NodeEffect> {
        let term = Envelope::ba(Epoch(epoch), NodeId(index), BaMsg::Term { value });
        self.feed((1..=2).map(|p| (p, term.clone())))
    }

    /// Every peer returns its chunk, bare and then with its proof; the
    /// retrieval hears the ones it asked, in the form it asked for.
    fn serve(&mut self, block: &Block) -> Vec<NodeEffect> {
        let (epoch, index) = (block.header.epoch, block.header.proposer);
        let enc = self.encode(block);
        let bare = (1..=3u16).map(|p| {
            let payload = enc.chunks[p as usize].0.clone();
            (p, VidMsg::ReturnBare { payload })
        });
        let proven = (1..=3u16).map(|p| {
            let (payload, proof) = enc.chunks[p as usize].clone();
            let root = enc.root;
            let msg = VidMsg::ReturnChunk {
                root,
                proof,
                payload,
            };
            (p, msg)
        });
        let answers: Vec<_> = bare
            .chain(proven)
            .map(|(p, msg)| (p, Envelope::vid(epoch, index, msg)))
            .collect();
        self.feed(answers)
    }

    /// Peers 1 and 3 disperse, commit and serve a block for `epoch` whose
    /// observation arrays vouch for `v_array`; BAs 0 and 2 of the epoch
    /// decide 0.
    fn commit_epoch(&mut self, epoch: u64, v_array: [u64; 4]) {
        self.decide(epoch, 0, false);
        self.decide(epoch, 2, false);
        for j in [1, 3] {
            let block = Block::empty(Epoch(epoch), NodeId(j), v_array.to_vec());
            self.complete(&block);
            self.decide(epoch, j, true);
            self.serve(&block);
        }
    }
}

/// `(epoch, index)` of every block `effs` request chunks of.
fn fetched(effs: &[NodeEffect]) -> Vec<(u64, u16)> {
    let mut blocks: Vec<(u64, u16)> = effs
        .iter()
        .filter_map(|e| match e {
            NodeEffect::Send(_, env)
                if matches!(
                    env.payload,
                    ProtoMsg::Vid(VidMsg::RequestChunk | VidMsg::RequestProven)
                ) =>
            {
                Some((env.epoch.0, env.index.0))
            }
            _ => None,
        })
        .collect();
    blocks.dedup();
    blocks
}

/// Proposer 2's block for `epoch`, carrying one transaction.
fn block_of_2(epoch: u64) -> Block {
    let mut block = Block::empty(Epoch(epoch), NodeId(2), vec![0; 4]);
    block.body.push(Tx::synthetic(NodeId(2), epoch, 0, 100));
    block
}

#[test]
fn a_completed_block_is_fetched_before_any_ba_decides() {
    for variant in [ProtocolVariant::Dl, ProtocolVariant::DlCoupled] {
        let mut d = Driven::new(variant);
        let block = block_of_2(1);
        // The forged `Ready`s complete the dispersal and the prefix covers
        // it: the `RequestChunk`s go out in that same `run`, with no BA of
        // the epoch decided.
        assert_eq!(fetched(&d.complete(&block)), [(1, 2)], "{variant:?}");
        let st = d.node.epochs.get(1).expect("state");
        assert!(st.decided.iter().all(Option::is_none), "{variant:?}");
        // Its BA deciding 0 fetches nothing more.
        assert_eq!(fetched(&d.decide(1, 2, false)), [], "{variant:?}");
        assert_eq!(d.node.delivered_frontier(), Epoch(0));
        d.serve(&block);
        d.commit_epoch(1, [0; 4]);
        assert_eq!(d.node.delivered_frontier(), Epoch(1));
        assert_eq!(d.node.stats().linked_deliveries, 0);
        // Epoch 2 names the block: it is in hand, so it is delivered in the
        // `run` that completes epoch 2 and phase 2 fetches nothing.
        d.commit_epoch(2, [0, 0, 1, 0]);
        let s = d.node.stats();
        assert_eq!(d.node.delivered_frontier(), Epoch(2), "{variant:?}");
        assert_eq!((s.linked_deliveries, s.txs_delivered), (1, 1));
        assert_eq!(s.linked_fetches_at_frontier, 0, "{variant:?}");
    }
}

#[test]
fn a_late_completion_is_fetched_only_once_the_prefix_covers_it() {
    let mut d = Driven::new(ProtocolVariant::Dl);
    assert_eq!(fetched(&d.decide(1, 2, false)), []);
    assert_eq!(fetched(&d.decide(2, 2, false)), []);
    // `V[2]` has a hole at epoch 1: no estimate can name epoch 2 yet.
    assert_eq!(fetched(&d.complete(&block_of_2(2))), []);
    assert_eq!(d.node.stats().retrievals_started, 0);
    // Filling the hole releases both.
    assert_eq!(fetched(&d.complete(&block_of_2(1))), [(1, 2), (2, 2)]);
}

#[test]
fn a_finished_retriever_is_dropped_and_late_chunks_touch_nothing() {
    let mut d = Driven::new(ProtocolVariant::Dl);
    let block = block_of_2(1);
    assert_eq!(fetched(&d.complete(&block)), [(1, 2)]);
    assert_eq!(fetched(&d.decide(1, 2, true)), [], "already under way");
    assert!(d.node.epochs.get(1).expect("state").retrievers[2].is_some());
    // Three peers answer where k = 2 decode: the third chunk is late.
    d.serve(&block);
    let st = d.node.epochs.get(1).expect("state");
    assert_eq!(st.retrieved[2], Some(Some(block.clone())));
    assert!(st.retrievers[2].is_none(), "finished retriever kept");
    assert!(d.node.chunk_requests_owed.iter().all(|&c| c == 0));
    // Later still: ignored, and nobody's account is debited twice.
    let late = d.serve(&block);
    assert!(
        late.iter().all(|e| matches!(e, NodeEffect::WakeAt(_))),
        "{late:?}"
    );
    assert!(d.node.chunk_requests_owed.iter().all(|&c| c == 0));
    assert_eq!(d.node.stats().retrievals_started, 1);
}

/// A log that shows `(1, 2)` dropped by its BA and, if `completed`,
/// dispersed in full.
fn log_with_block_1_2_dropped(d: &Driven, completed: bool) -> Vec<StoreRecord> {
    let (epoch, index) = (Epoch(1), NodeId(2));
    let root = d.encode(&block_of_2(1)).root;
    let mut log = vec![StoreRecord::Decided {
        epoch,
        index,
        value: false,
    }];
    if completed {
        log.push(StoreRecord::Completed { epoch, index, root });
    }
    log
}

#[test]
fn restore_rearms_the_fetch_and_falls_back_to_phase_two_without_the_completion() {
    let order = [(1, 1, false), (1, 3, false), (1, 2, true), (2, 1, false)];
    for completed in [true, false] {
        let mut d = Driven::new(ProtocolVariant::Dl);
        d.node.restore(&log_with_block_1_2_dropped(&d, completed));
        let rearmed = fetched(&d.node.poll_vec(0));
        assert_eq!(rearmed, if completed { vec![(1, 2)] } else { vec![] });
        // Either way the block is delivered where epoch 2 links it; only
        // the node that never saw it complete fetches it at the frontier.
        d.commit_epoch(1, [0; 4]);
        d.commit_epoch(2, [0, 0, 1, 0]);
        d.serve(&block_of_2(1));
        assert_eq!(d.delivered[..4], order, "completed = {completed}");
        let s = d.node.stats();
        assert_eq!(s.linked_fetches_at_frontier, u64::from(!completed));
        assert_eq!(s.retrievals_started, 5);
    }
}

#[test]
fn only_dl_and_dl_coupled_take_the_certainty_trigger() {
    // HoneyBadger and HB-Link fetch on completion to vote, as ever.
    for variant in [
        ProtocolVariant::HoneyBadger,
        ProtocolVariant::HoneyBadgerLink,
    ] {
        let mut d = Driven::new(variant);
        // Live: a completion fetches only to vote, the BA deciding 0 asks
        // nobody anything.
        assert_eq!(
            fetched(&d.complete(&block_of_2(1))),
            [(1, 2)],
            "{variant:?}"
        );
        assert_eq!(fetched(&d.decide(1, 2, false)), [], "{variant:?}");
        // Restored: HoneyBadger never delivers the block, and HB-Link
        // fetches it when an estimate names it, as it did before.
        d.node = solo(NodeConfig::new(ClusterConfig::new(4), variant));
        d.node.restore(&log_with_block_1_2_dropped(&d, true));
        assert_eq!(fetched(&d.node.poll_vec(0)), [], "{variant:?}");
        assert_eq!(d.node.stats().retrievals_started, 0, "{variant:?}");
    }
}

// ---------------------------------------------------------------------------
// Availability is the first vote: a `Ready` is round 0's `BVal(1)`
// ---------------------------------------------------------------------------

/// Every entry-point call of a 4-node mesh in which each node submits one
/// transaction, as `(node, its effects)`; every transaction is delivered.
fn mesh_runs(variant: ProtocolVariant) -> Vec<(usize, Vec<NodeEffect>)> {
    let mut mesh = Mesh::new(4, variant);
    mesh.runs = Some(Vec::new());
    for i in 0..4 {
        mesh.submit(i, Tx::synthetic(NodeId(i as u16), 0, 0, 100));
    }
    mesh.run(300, 10, &[]);
    assert!(mesh.tx_orders().iter().all(|o| o.len() == 4), "{variant:?}");
    mesh.runs.take().expect("recorded")
}

/// `(epoch, index)` of every envelope in `effs` whose payload is `want`'s.
fn sent(effs: &[NodeEffect], want: impl Fn(&ProtoMsg) -> bool) -> Vec<(u64, u16)> {
    effs.iter()
        .filter_map(|e| match e {
            NodeEffect::Send(_, env) if want(&env.payload) => Some((env.epoch.0, env.index.0)),
            _ => None,
        })
        .collect()
}

/// `(epoch, index)` of every dispersal that completed in `effs`' call.
fn completions(effs: &[NodeEffect]) -> Vec<(u64, u16)> {
    effs.iter()
        .filter_map(|e| match e {
            NodeEffect::Persist(StoreRecord::Completed { epoch, index, .. }) => {
                Some((epoch.0, index.0))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn dl_votes_and_fetches_with_its_ready_and_honeybadger_does_not() {
    let bval_one = |p: &ProtoMsg| {
        matches!(
            p,
            ProtoMsg::Ba(BaMsg::BVal {
                round: 0,
                value: true
            })
        )
    };
    let aux_one = |p: &ProtoMsg| {
        matches!(
            p,
            ProtoMsg::Ba(BaMsg::Aux {
                round: 0,
                value: true
            })
        )
    };
    let ready =
        |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::Ready { .. } | VidMsg::ReadyAsGot));
    let request = |p: &ProtoMsg| {
        matches!(
            p,
            ProtoMsg::Vid(VidMsg::RequestChunk | VidMsg::RequestProven)
        )
    };
    let mut before_completion = 0;
    for (node, effs) in mesh_runs(ProtocolVariant::Dl) {
        assert_eq!(
            sent(&effs, bval_one),
            [],
            "node {node} sent a round-0 BVal(1)"
        );
        let (aux, readys) = (sent(&effs, aux_one), sent(&effs, ready));
        for c in completions(&effs) {
            assert!(
                aux.contains(&c),
                "node {node}: {c:?} completed without Aux(1)"
            );
        }
        for r in sent(&effs, request) {
            assert!(
                readys.contains(&r),
                "node {node}: {r:?} requested without Ready"
            );
            before_completion += usize::from(!completions(&effs).contains(&r));
        }
    }
    assert!(before_completion > 0, "every request waited for completion");
    // Retrieve-then-vote is untouched: a fresh round-0 BVal(1) per vote, and
    // chunks asked for at completion.
    let runs = mesh_runs(ProtocolVariant::HoneyBadger);
    assert!(runs
        .iter()
        .any(|(_, effs)| !sent(effs, bval_one).is_empty()));
    for (node, effs) in runs {
        for r in sent(&effs, request) {
            assert!(
                completions(&effs).contains(&r),
                "node {node}: {r:?} asked early"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The write-ahead rule, on the effect stream itself
// ---------------------------------------------------------------------------

#[test]
fn every_effect_follows_its_write_ahead_record() {
    // `(record, epoch, index, value)`: what a record makes durable, and what
    // an effect needs durable first (`records` module docs). `Completed` is
    // left out: a BA may relay `BVal(1)` on f + 1 peers' word before our own
    // dispersal completes.
    type Key = (&'static str, u64, u16, bool);
    for variant in all_variants() {
        let mut held: Vec<BTreeSet<Key>> = vec![BTreeSet::new(); 4];
        for (node, effs) in mesh_runs(variant) {
            let me = node as u16;
            for eff in &effs {
                let needs: Vec<Key> = match eff {
                    NodeEffect::Persist(rec) => {
                        held[node].insert(match rec {
                            StoreRecord::Chunk { epoch, index, .. } => {
                                ("Chunk", epoch.0, index.0, false)
                            }
                            StoreRecord::Proposed { epoch, .. } => ("Proposed", epoch.0, me, false),
                            StoreRecord::Decided {
                                epoch,
                                index,
                                value,
                            } => ("Decided", epoch.0, index.0, *value),
                            StoreRecord::Delivered {
                                epoch, proposer, ..
                            } => ("Delivered", epoch.0, proposer.0, false),
                            _ => continue,
                        });
                        continue;
                    }
                    NodeEffect::Send(_, env) => {
                        let (e, i) = (env.epoch.0, env.index.0);
                        match env.payload {
                            ProtoMsg::Vid(VidMsg::GotChunk { .. }) => vec![("Chunk", e, i, false)],
                            ProtoMsg::Vid(VidMsg::Chunk { .. }) if i == me => {
                                vec![("Proposed", e, i, false)]
                            }
                            // A batched `Term` needs every member's decision.
                            ProtoMsg::Ba(BaMsg::Term { value }) => {
                                env.members().map(|m| ("Decided", e, m.0, value)).collect()
                            }
                            _ => continue,
                        }
                    }
                    NodeEffect::Deliver(d) => vec![("Delivered", d.epoch.0, d.proposer.0, false)],
                    _ => continue,
                };
                for needs in needs {
                    assert!(
                        held[node].contains(&needs),
                        "{variant:?} node {node}: an effect ran ahead of its {needs:?} record"
                    );
                }
            }
        }
    }
}

/// Round 0's `BVal(0)` for instances `0..4` of epoch 1, from one peer: a
/// batch, or (`split`) the same messages as four envelopes of one burst.
fn bval0_from_one_peer(split: bool) -> Vec<Envelope> {
    let vote = BaMsg::BVal {
        round: 0,
        value: false,
    };
    let mut batch = Envelope::ba(Epoch(1), NodeId(0), vote);
    for m in 1..4 {
        assert!(batch.add_member(NodeId(m)));
    }
    if !split {
        return vec![batch];
    }
    let members = batch.members();
    members
        .map(|m| Envelope::new(batch.epoch, m, batch.payload.clone()))
        .collect()
}

/// The bursts of [`bval0_from_one_peer`]'s votes, then of `Term(0)` for
/// the same four instances, from peers 1 and 2 — `f + 1` of them at N = 4,
/// enough to relay the votes and decide all four — and of `ReadyAsGot` from
/// peer 3. Returns each burst's effects.
fn batched_script(node: &mut Node<RealBlockCoder>, split: bool) -> Vec<Vec<NodeEffect>> {
    let with = |payload: ProtoMsg| {
        move |mut env: Envelope| {
            env.payload = payload.clone();
            env
        }
    };
    let term = with(ProtoMsg::Ba(BaMsg::Term { value: false }));
    let ready = with(ProtoMsg::Vid(VidMsg::ReadyAsGot));
    let mut bursts: Vec<(u16, Vec<Envelope>)> = Vec::new();
    for from in [1, 2] {
        bursts.push((from, bval0_from_one_peer(split)));
    }
    for from in [1, 2] {
        bursts.push((
            from,
            bval0_from_one_peer(split).into_iter().map(&term).collect(),
        ));
    }
    bursts.push((
        3,
        bval0_from_one_peer(split).into_iter().map(&ready).collect(),
    ));
    bursts
        .into_iter()
        .map(|(from, mut envs)| {
            let mut out = Vec::new();
            node.handle_burst(NodeId(from), &mut envs, 5, &mut out);
            // Each burst is an instant of its own.
            node.poll(5, &mut out);
            out
        })
        .collect()
}

#[test]
fn one_calls_identical_broadcasts_leave_as_one_envelope_per_peer() {
    let cluster = ClusterConfig::new(4);
    let mut node = solo(NodeConfig::new(cluster, ProtocolVariant::Dl));
    let runs = batched_script(&mut node, true);
    // The second peer's `BVal(0)`s make f + 1 for four instances in one
    // call: each relays, and each peer gets one envelope naming all four.
    let relayed: Vec<_> = runs[1]
        .iter()
        .filter_map(|eff| match eff {
            NodeEffect::Send(to, env) if matches!(env.payload, ProtoMsg::Ba(_)) => Some((to, env)),
            _ => None,
        })
        .collect();
    assert_eq!(relayed.len(), 3, "{relayed:?}");
    for (to, env) in relayed {
        assert_ne!(*to, NodeId(0));
        let members: Vec<u16> = env.members().map(|m| m.0).collect();
        assert_eq!(members, [0, 1, 2, 3], "{env:?}");
        through_the_codec(env.clone());
    }
    // The decisions leave the same way, beside the empty filler block the
    // decided epoch gets; `msgs_sent` counts each member as one message.
    let mut msgs = 0;
    for eff in runs.iter().flatten() {
        if let NodeEffect::Send(_, env) = eff {
            msgs += env.members().count() as u64;
            if let ProtoMsg::Ba(_) = env.payload {
                assert_eq!(env.members().map(|m| m.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
            }
        }
    }
    assert_eq!(node.stats().msgs_sent, msgs);
    assert_eq!(
        msgs,
        3 * 4 + 3 + 3 * 4 + 4,
        "BVals, the filler's chunks (each its GotChunk too), Terms, asks"
    );
    // Peer 3's `ReadyAsGot`s name instances whose `GotChunk` from it is not
    // in hand: each asks peer 3 alone, as its own 4-byte `RootsWanted`.
    let asks = sends(&runs[4], |p| {
        matches!(p, ProtoMsg::Vid(VidMsg::RootsWanted))
    });
    assert_eq!(asks.len(), 4, "{asks:?}");
    for (to, env) in asks {
        assert_eq!(to, NodeId(3));
        assert_eq!(env.wire_size(), 4);
    }
}

#[test]
fn a_batch_has_the_effects_of_its_members_sent_one_by_one() {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster, ProtocolVariant::Dl);
    let (mut batched, mut split) = (solo(cfg.clone()), solo(cfg));
    let runs = batched_script(&mut batched, false);
    assert_eq!(runs, batched_script(&mut split, true));
    assert_eq!(batched.stats(), split.stats());
    // The script decided all four instances, and the decisions went out
    // as one batched `Term` per peer.
    let decided = ProtoMsg::Ba(BaMsg::Term { value: false });
    let terms = runs[2..4].iter().flatten().filter(
        |eff| matches!(eff, NodeEffect::Send(_, env) if env.payload == decided && env.is_batch()),
    );
    assert_eq!(terms.count(), 3);
    assert_eq!(batched.agreement_frontier(), Epoch(1));
}

#[test]
fn a_batch_naming_a_member_past_the_cluster_is_dropped_whole() {
    let cluster = ClusterConfig::new(4);
    let mut node = solo(NodeConfig::new(cluster, ProtocolVariant::Dl));
    let mut env = Envelope::ba(Epoch(1), NodeId(2), BaMsg::Term { value: true });
    assert!(env.add_member(NodeId(4)));
    assert!(node.handle_vec(NodeId(1), env, 0).is_empty());
    assert!(
        !node.epochs.contains(1),
        "no epoch state for a dropped batch"
    );
}

// ---------------------------------------------------------------------------
// An instant's `GotChunk`s name one digest; a proposer's chunk is its own
// ---------------------------------------------------------------------------

/// Proposer `j`'s epoch-1 empty block at N = 4: its chunk for node `to`,
/// and its root.
fn chunk_for(j: u16, to: u16) -> (Envelope, Hash) {
    chunk_in(1, j, to)
}

/// [`chunk_for`] in `epoch`.
fn chunk_in(epoch: u64, j: u16, to: u16) -> (Envelope, Hash) {
    let cluster = ClusterConfig::new(4);
    let coder = RealBlockCoder::new(&cluster);
    let block = Block::empty(Epoch(epoch), NodeId(j), vec![0; 4]);
    let packed = crate::coder::BlockCoder::pack(&coder, &block);
    let enc = dl_vid::Coder::encode(&coder, &packed);
    let (payload, proof) = enc.chunks[to as usize].clone();
    let root = enc.root;
    let chunk = VidMsg::Chunk {
        root,
        proof,
        payload,
    };
    (Envelope::vid(Epoch(epoch), NodeId(j), chunk), root)
}

/// Node `me` of a 4-node DL cluster.
fn dl_node(me: u16) -> Node<RealBlockCoder> {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    Node::new(NodeId(me), cfg, RealBlockCoder::new(&cluster))
}

/// `envs` handed over one call each at `now`, then the instant's poll.
fn instant(node: &mut Node<RealBlockCoder>, envs: &[(u16, Envelope)], now: u64) -> Vec<NodeEffect> {
    let mut out = Vec::new();
    for (from, env) in envs {
        node.handle(NodeId(*from), env.clone(), now, &mut out);
    }
    node.poll(now, &mut out);
    out
}

/// `(to, envelope)` of every send in `effs` whose payload is `want`'s.
fn sends(effs: &[NodeEffect], want: impl Fn(&ProtoMsg) -> bool) -> Vec<(NodeId, Envelope)> {
    effs.iter()
        .filter_map(|e| match e {
            NodeEffect::Send(to, env) if want(&env.payload) => Some((*to, env.clone())),
            _ => None,
        })
        .collect()
}

fn got_chunk(p: &ProtoMsg) -> bool {
    matches!(p, ProtoMsg::Vid(VidMsg::GotChunk { .. }))
}

/// The chunks of proposers `js` for node `to`, each from its proposer.
fn chunks_for(js: &[u16], to: u16) -> Vec<(u16, Envelope)> {
    js.iter().map(|&j| (j, chunk_for(j, to).0)).collect()
}

/// Node 2's `GotChunk` batch to node 0 for the chunks of proposers 1 and
/// 3, as node 2 sends it.
fn batch_from_2() -> Envelope {
    let mut two = dl_node(2);
    let effs = instant(&mut two, &chunks_for(&[1, 3], 2), 5);
    let got = sends(&effs, got_chunk);
    assert_eq!(got.len(), 3, "{got:?}");
    got.into_iter()
        .find(|(to, _)| *to == NodeId(0))
        .expect("one to node 0")
        .1
}

#[test]
fn an_instants_chunks_leave_as_one_gotchunk_envelope_per_peer() {
    let mut node = dl_node(0);
    let mut out = Vec::new();
    for (from, env) in chunks_for(&[1, 2, 3], 0) {
        node.handle(NodeId(from), env, 5, &mut out);
    }
    // Held until the instant's poll, which the node asks for now.
    assert!(sends(&out, got_chunk).is_empty(), "{out:?}");
    assert!(out.contains(&NodeEffect::WakeAt(5)));
    node.poll(5, &mut out);
    let digest = got_digest(Epoch(1), (1..4).map(|j| (NodeId(j), chunk_for(j, 0).1)));
    let got = sends(&out, got_chunk);
    let to: Vec<u16> = got.iter().map(|(to, _)| to.0).collect();
    assert_eq!(to, [1, 2, 3]);
    for (_, env) in got {
        assert_eq!(env.members().map(|m| m.0).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(
            env.payload,
            ProtoMsg::Vid(VidMsg::GotChunk { root: digest })
        );
        through_the_codec(env);
    }
    // A proposer's own chunk is its `GotChunk`: none for its instance.
    let mut proposer = dl_node(1);
    let effs = instant(&mut proposer, &chunks_for(&[2], 1), 5);
    let got = sends(&effs, got_chunk);
    assert!(got
        .iter()
        .all(|(_, env)| env.index == NodeId(2) && !env.is_batch()));
}

#[test]
fn a_matching_digest_has_the_effects_of_its_members_one_by_one() {
    let (mut batched, mut split) = (dl_node(0), dl_node(0));
    for node in [&mut batched, &mut split] {
        instant(node, &chunks_for(&[1, 2, 3], 0), 5);
    }
    let batch = batch_from_2();
    assert_eq!(batch.members().map(|m| m.0).collect::<Vec<_>>(), [1, 3]);
    // The members one by one, in one burst as the batch is one envelope.
    let mut plain: Vec<Envelope> = [1, 3]
        .map(|j| {
            let root = chunk_for(j, 0).1;
            Envelope::vid(Epoch(1), NodeId(j), VidMsg::GotChunk { root })
        })
        .into();
    let effs = instant(&mut batched, &[(2, batch)], 6);
    let mut one_by_one = Vec::new();
    split.handle_burst(NodeId(2), &mut plain, 6, &mut one_by_one);
    split.poll(6, &mut one_by_one);
    assert_eq!(effs, one_by_one);
    assert_eq!(batched.stats(), split.stats());
    // With the proposer's implied claim and our own, node 2's makes N − f
    // for instances 1 and 3: our `Ready`s leave as one batch per peer.
    let ready = |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::ReadyAsGot));
    for (_, env) in sends(&effs, ready) {
        assert_eq!(env.members().map(|m| m.0).collect::<Vec<_>>(), [1, 3]);
    }
    assert_eq!(sends(&effs, ready).len(), 3);
}

#[test]
fn a_digest_that_does_not_check_asks_for_the_roots_once() {
    // Node 0 holds proposer 1's chunk but not yet proposer 3's when node
    // 2's batch naming both arrives.
    let (mut late, mut direct) = (dl_node(0), dl_node(0));
    for node in [&mut late, &mut direct] {
        instant(node, &chunks_for(&[1], 0), 5);
    }
    let effs = instant(&mut late, &[(2, batch_from_2())], 6);
    instant(&mut direct, &[], 6);
    let wanted = |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::RootsWanted));
    let asks = sends(&effs, wanted);
    assert_eq!(asks.len(), 1, "{effs:?}");
    let (to, ask) = asks[0].clone();
    assert_eq!(to, NodeId(2));
    assert_eq!(ask.members().map(|m| m.0).collect::<Vec<_>>(), [1, 3]);
    assert!(
        sends(&effs, |p| !wanted(p)).is_empty(),
        "nothing counted: {effs:?}"
    );
    through_the_codec(ask.clone());
    // Node 2 answers each instance once, with its plain `GotChunk`.
    let mut two = dl_node(2);
    instant(&mut two, &chunks_for(&[1, 3], 2), 5);
    let answers = instant(&mut two, &[(0, ask.clone()), (0, ask)], 7);
    let plain = sends(&answers, got_chunk);
    let expected = [1, 3].map(|j| {
        let root = chunk_for(j, 0).1;
        (
            NodeId(0),
            Envelope::vid(Epoch(1), NodeId(j), VidMsg::GotChunk { root }),
        )
    });
    assert_eq!(plain, expected);
    // The answers then have the effects they have at a node that never
    // saw the batch.
    let plain: Vec<(u16, Envelope)> = plain.into_iter().map(|(_, env)| (2, env)).collect();
    assert_eq!(
        instant(&mut late, &plain, 8),
        instant(&mut direct, &plain, 8)
    );
}

#[test]
fn a_proposers_ready_counts_with_no_gotchunk_of_its_own() {
    let mut node = dl_node(0);
    instant(&mut node, &chunks_for(&[1], 0), 5);
    // Node 2's `GotChunk`, ours and the one proposer 1's chunk implies make
    // N − f: our `Ready` goes out.
    let root = chunk_for(1, 0).1;
    let got = Envelope::vid(Epoch(1), NodeId(1), VidMsg::GotChunk { root });
    let effs = instant(&mut node, &[(2, got)], 6);
    let ready = |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::ReadyAsGot));
    assert_eq!(sends(&effs, ready).len(), 3);
    // Root-less `Ready`s from the proposer and node 2 complete it.
    let ready = Envelope::vid(Epoch(1), NodeId(1), VidMsg::ReadyAsGot);
    let effs = instant(&mut node, &[(1, ready.clone()), (2, ready)], 7);
    assert_eq!(completions(&effs), [(1, 1)]);
}

#[test]
fn a_rootless_ready_asks_and_its_answer_votes_once_in_ba() {
    let mut node = dl_node(0);
    let root = chunk_for(1, 0).1;
    let ready = Envelope::vid(Epoch(1), NodeId(1), VidMsg::ReadyAsGot);
    // Instance 1's BA takes an input, so 2f + 1 round-0 `BVal(1)`s, which
    // `Ready`s are, show as its `Aux(1)`.
    node.ensure_epoch(1);
    let st = node.epochs.get_mut(1).expect("just ensured");
    let _ = st.bas[1].input(false);
    let aux = |p: &ProtoMsg| matches!(p, ProtoMsg::Ba(BaMsg::Aux { value: true, .. }));
    let wanted = |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::RootsWanted));
    // Peer 1's `ReadyAsGot` with no `GotChunk` of its in hand asks it.
    let effs = instant(&mut node, &[(1, ready.clone())], 6);
    let asks = sends(&effs, wanted);
    assert_eq!(asks.len(), 1, "{effs:?}");
    assert_eq!(asks[0].0, NodeId(1));
    // Its answered plain `Ready` is the same vote, and peer 2's root-less
    // one makes two: below 2f + 1.
    let answer = Envelope::vid(Epoch(1), NodeId(1), VidMsg::Ready { root });
    let effs = instant(&mut node, &[(1, answer), (2, ready.clone())], 7);
    assert!(sends(&effs, aux).is_empty(), "{effs:?}");
    // A third sender's makes 2f + 1.
    let effs = instant(&mut node, &[(3, ready)], 8);
    assert_eq!(sends(&effs, aux).len(), 3, "{effs:?}");
}

#[test]
fn a_readyasgot_flood_gets_one_ask_per_envelope_and_counts_nothing() {
    let mut node = dl_node(0);
    instant(&mut node, &chunks_for(&[1, 2, 3], 0), 5);
    // Peer 2 sends `ReadyAsGot`s and never its `GotChunk`s.
    let mut now = 6;
    for _ in 0..50 {
        let flood: Vec<(u16, Envelope)> = (0..4)
            .map(|j| (2, Envelope::vid(Epoch(1), NodeId(j), VidMsg::ReadyAsGot)))
            .collect();
        let effs = instant(&mut node, &flood, now);
        let all = sends(&effs, |_| true);
        assert!(all.len() <= flood.len(), "{effs:?}");
        for (to, env) in all {
            assert_eq!(to, NodeId(2));
            assert_eq!(env.payload, ProtoMsg::Vid(VidMsg::RootsWanted));
            assert_eq!(env.wire_size(), 4);
        }
        now += 1;
    }
    // No server counted any of them: one more `Ready`, peer 1's, would
    // make f + 1 with a counted one from peer 2 and send our own.
    let root = chunk_for(3, 0).1;
    let one = Envelope::vid(Epoch(1), NodeId(3), VidMsg::Ready { root });
    let effs = instant(&mut node, &[(1, one)], now);
    let ready =
        |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::Ready { .. } | VidMsg::ReadyAsGot));
    assert!(sends(&effs, ready).is_empty(), "{effs:?}");
    let st = node.epochs.get(1).expect("live");
    assert!(st
        .servers
        .iter()
        .flatten()
        .all(|s| s.committed_root().is_none()));
}

#[test]
fn a_rejected_chunk_implies_no_gotchunk() {
    let mut node = dl_node(0);
    let (mut garbage, _) = chunk_for(1, 0);
    let bogus = Hash::digest(b"bogus");
    if let ProtoMsg::Vid(VidMsg::Chunk { root, .. }) = &mut garbage.payload {
        *root = bogus;
    }
    let effs = instant(&mut node, &[(1, garbage)], 5);
    assert!(sends(&effs, |_| true).is_empty(), "{effs:?}");
    // Two `GotChunk(bogus)`s and an implied third would send a `Ready`.
    let got = Envelope::vid(Epoch(1), NodeId(1), VidMsg::GotChunk { root: bogus });
    let effs = instant(&mut node, &[(2, got.clone()), (3, got)], 6);
    let ready =
        |p: &ProtoMsg| matches!(p, ProtoMsg::Vid(VidMsg::Ready { .. } | VidMsg::ReadyAsGot));
    assert!(sends(&effs, ready).is_empty(), "{effs:?}");
}
