use super::*;
use crate::coder::RealBlockCoder;
use crate::engine::EngineExt;
use crate::records::StoreRecord;
use crate::variant::{NodeConfig, ProtocolVariant};
use dl_crypto::Hash;
use dl_wire::{
    BaMsg, Block, ClusterConfig, Envelope, Epoch, NodeId, ProtoMsg, SyncMsg, Tx, VidMsg,
};
use std::collections::VecDeque;

/// Synchronous full-mesh harness: delivers every wire message each
/// tick, polling all nodes on a fixed cadence.
struct Mesh {
    nodes: Vec<Node<RealBlockCoder>>,
    wire: VecDeque<(NodeId, NodeId, Envelope)>,
    delivered: Vec<Vec<DeliveredBlock>>,
    /// Per-node write-ahead log, as a persistent driver would keep it.
    records: Vec<Vec<StoreRecord>>,
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
            now: 0,
        }
    }

    fn sink(&mut self, from: usize, effects: Vec<NodeEffect>) {
        for eff in effects {
            match eff {
                NodeEffect::Send(to, env) => {
                    self.wire.push_back((NodeId(from as u16), to, env));
                }
                NodeEffect::Deliver(d) => self.delivered[from].push(d),
                NodeEffect::Persist(rec) => self.records[from].push(rec),
                NodeEffect::WakeAt(_) | NodeEffect::Stat(_) | NodeEffect::PurgeReturns { .. } => {}
            }
        }
    }

    fn submit(&mut self, node: usize, tx: Tx) {
        let effs = self.nodes[node].submit_tx_vec(tx, self.now);
        self.sink(node, effs);
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
fn window_widens_the_envelope_admission_horizon() {
    // With a dispersal window wider than the epoch lookahead, peers
    // legitimately disperse (and vote) up to `window` epochs past our
    // agreement frontier — those envelopes must be admitted, while the
    // first epoch beyond the widened horizon is still dropped.
    let cluster = ClusterConfig::new(4);
    let mut cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    cfg.dispersal_window = cfg.epoch_lookahead + 4;
    let window = cfg.dispersal_window;
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    let in_window = Envelope::ba(
        Epoch(window),
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    node.handle_vec(NodeId(1), in_window, 0);
    assert!(
        node.epochs.contains(window),
        "envelope inside the widened window was dropped"
    );
    let beyond = Envelope::ba(
        Epoch(window + 1),
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    node.handle_vec(NodeId(1), beyond, 0);
    assert!(
        !node.epochs.contains(window + 1),
        "envelope beyond the widened window was admitted"
    );
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
    // The same chunk from its proposer is accepted (GotChunk goes out).
    let effs = node.handle_vec(NodeId(2), env, 0);
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
    let effs = node.handle_vec(NodeId(2), real, 0);
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

#[test]
fn restore_rebuilds_the_window_byte_ledger_and_zeroes_the_retrieval_ledger() {
    // A wide window whose byte budget covers two outstanding proposals.
    let cluster = ClusterConfig::new(4);
    let mut cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    cfg.dispersal_window = 8;
    cfg.window_bytes_max = 2 * cfg.propose_size as u64 - 1;
    let size = cfg.propose_size as u32;
    let mut node = Node::new(NodeId(0), cfg.clone(), RealBlockCoder::new(&cluster));
    let mut log = Vec::new();
    for s in 0..4u64 {
        for eff in node.submit_tx_vec(Tx::synthetic(NodeId(0), s, s, size), s) {
            if let NodeEffect::Persist(rec) = eff {
                log.push(rec);
            }
        }
    }
    assert_eq!(node.stats().blocks_proposed, 2, "byte cap stalls at two");
    // The restarted node is under the same cap: its two undecided
    // proposals are still outstanding, so nothing new may open.
    let mut fresh = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    fresh.restore(&log);
    assert_eq!(fresh.inflight_bytes, 2 * size as u64);
    for s in 4..8u64 {
        fresh.submit_tx_vec(Tx::synthetic(NodeId(0), s, 100 + s, size), 100 + s);
    }
    assert_eq!(fresh.stats().blocks_proposed, 0, "restart forgot the cap");
    assert!(fresh.chunk_requests_owed.iter().all(|&c| c == 0));
}

// ---------------------------------------------------------------------------
// Epoch dispersal window
// ---------------------------------------------------------------------------

/// Drive a solo node (no peers answering, so the gate never moves) with
/// size-threshold proposals and count how many epochs it opens.
fn solo_proposals(mut cfg: NodeConfig, submits: usize) -> u64 {
    let cluster = cfg.cluster.clone();
    let size = cfg.propose_size;
    cfg.epoch_lookahead = cfg.epoch_lookahead.max(cfg.dispersal_window);
    let mut node = Node::new(NodeId(0), cfg, RealBlockCoder::new(&cluster));
    for s in 0..submits {
        node.submit_tx_vec(
            Tx::synthetic(NodeId(0), s as u64, s as u64, size as u32),
            s as u64,
        );
    }
    node.stats().blocks_proposed
}

#[test]
fn pipelined_window_proposes_k_epochs_ahead_then_stalls() {
    // With no peers, the agreement frontier is pinned at 0, so the gate
    // never advances: the only way forward is the pipelined branch.
    // k = 1 must propose exactly once; k = 4 must open epochs 1..=4 and
    // then stall on the epoch cap, no matter how many proposals queue.
    let cluster = ClusterConfig::new(4);
    let base = NodeConfig::new(cluster, ProtocolVariant::Dl);
    assert_eq!(solo_proposals(base.clone(), 8), 1, "k=1 must not pipeline");
    let mut windowed = base;
    windowed.dispersal_window = 4;
    assert_eq!(
        solo_proposals(windowed, 8),
        4,
        "k=4 must open exactly the window, then stall"
    );
}

#[test]
fn window_byte_cap_halts_the_pipeline() {
    // A wide epoch window whose byte budget only covers one outstanding
    // proposal: the second pipelined epoch must never open.
    let cluster = ClusterConfig::new(4);
    let mut cfg = NodeConfig::new(cluster, ProtocolVariant::Dl);
    cfg.dispersal_window = 8;
    cfg.window_bytes_max = 1;
    assert_eq!(
        solo_proposals(cfg, 8),
        1,
        "byte backpressure failed to stall the window"
    );
}

#[test]
fn all_variants_reach_total_order_with_window_4() {
    for variant in all_variants() {
        let cluster = ClusterConfig::new(4);
        let mut cfg = NodeConfig::new(cluster, variant);
        cfg.dispersal_window = 4;
        let mut mesh = Mesh::with_cfg(4, cfg);
        for i in 0..4usize {
            for s in 0..3u64 {
                mesh.submit(i, Tx::synthetic(NodeId(i as u16), s, 0, 64));
            }
        }
        mesh.run(1200, 10, &[]);
        let orders = mesh.tx_orders();
        assert!(
            orders.windows(2).all(|w| w[0] == w[1]),
            "{variant:?} diverged under window 4"
        );
        assert_eq!(
            orders[0].len(),
            12,
            "{variant:?}: lost transactions under window 4"
        );
    }
}

#[test]
fn window_of_one_is_schedule_identical_to_default() {
    // At k = 1 the pipelined advance branch is unreachable and the byte
    // ledger is dead weight: even a zero byte budget must not change a
    // single message, byte, proposal or delivery relative to the default
    // configuration.
    let run = |tune: fn(&mut NodeConfig)| {
        let cluster = ClusterConfig::new(4);
        let mut cfg = NodeConfig::new(cluster, ProtocolVariant::Dl);
        tune(&mut cfg);
        let mut mesh = Mesh::with_cfg(4, cfg);
        for i in 0..4usize {
            for s in 0..2u64 {
                mesh.submit(i, Tx::synthetic(NodeId(i as u16), s, 0, 64));
            }
        }
        mesh.run(900, 10, &[]);
        let fingerprints: Vec<(u64, u64, u64, u64)> = mesh
            .nodes
            .iter()
            .map(|n| {
                let s = n.stats();
                (
                    s.blocks_proposed,
                    s.epochs_delivered,
                    s.msgs_sent,
                    s.bytes_sent,
                )
            })
            .collect();
        (fingerprints, mesh.tx_orders())
    };
    let default = run(|_| {});
    let strangled = run(|cfg| {
        cfg.dispersal_window = 1;
        cfg.window_bytes_max = 0;
    });
    assert_eq!(
        default, strangled,
        "k=1 schedule must be unaffected by window knobs"
    );
}
