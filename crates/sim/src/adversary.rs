//! Faulty cluster members: what a slot of each faulty [`SimNodeKind`] runs.
//!
//! An [`Adversary`] implements the same [`Engine`] trait as the honest
//! [`dl_core::Node`], so the simulator drops one into a cluster slot as a
//! `Box<dyn Engine>` without special-casing. Five kinds ship:
//!
//! * [`SimNodeKind::Mute`] — a crashed node: consumes everything, emits
//!   nothing. Exercises the `f`-crash-tolerance of every layer.
//! * [`SimNodeKind::Equivocate`] — a malicious proposer: disperses *a
//!   different block to every peer* for the same epoch, each peer's chunk
//!   under its own block's Merkle root, and votes contradictorily in every
//!   BA. A root then has one holder and the proposer's implied `GotChunk`
//!   (its chunk is its `GotChunk`, `dl_vid`) — short of `N − f` — so the
//!   equivocator's dispersal never completes and its BA slot decides 0:
//!   the cluster commits the epoch without it. (Two roots split between
//!   even and odd peers would each gather `N − f` at N = 4.) Every digest
//!   batch that names its instance fails to check, so the `RootsWanted`
//!   fall-back runs too.
//! * [`SimNodeKind::DelayRelease`] — a straggling proposer by choice: builds
//!   a *valid* dispersal but withholds every chunk and vote until the last
//!   useful moment, probing the pipeline's tolerance for late-but-correct
//!   traffic (the epoch must commit either with the late block or, if the
//!   ACS zero-fill won the race, without it — never inconsistently).
//! * [`SimNodeKind::SelectiveSend`] — disperses a valid block to
//!   `N − f − 2` peers, so that with its own implied `GotChunk` its
//!   dispersal is one acknowledgement short of `N − f`, and the cluster
//!   must commit the epoch around the permanently-pending slot.
//! * [`SimNodeKind::GarbageChunks`] — sends structurally well-formed chunks
//!   whose Merkle proofs do not verify against the advertised root,
//!   exercising every honest node's chunk-rejection path end to end; and,
//!   as a retrieval server, answers every chunk request with wrong bytes of
//!   the right length (bare, or under the chunk's own root and proof),
//!   which forces an optimistic retrieval's re-encoding check to fail and
//!   the retriever to fall back to proofs.

use std::collections::BTreeMap;

use dl_core::{BlockCoder, EffectSink, Engine};
use dl_crypto::{Hash, MerkleProof};
use dl_wire::{
    BaMsg, Block, ChunkPayload, ClusterConfig, Envelope, Epoch, NodeId, ProtoMsg, Tx, VidMsg,
};

use crate::SimNodeKind;

/// How long a [`SimNodeKind::DelayRelease`] node sits on its chunks and
/// votes: several Nagle delays — late enough that honest peers' epochs are
/// well under way, early enough to still be usable.
const RELEASE_DELAY_MS: u64 = 350;

/// A faulty cluster member with the same [`Engine`] interface as
/// [`dl_core::Node`].
pub(crate) struct Adversary<C: BlockCoder> {
    me: NodeId,
    cluster: ClusterConfig,
    coder: C,
    kind: SimNodeKind,
    /// Highest epoch this node has attacked (0 = none yet).
    attacked_up_to: u64,
    /// Envelopes a `DelayRelease` node is sitting on: `(due, to, env)`.
    withheld: Vec<(u64, NodeId, Envelope)>,
    /// `GarbageChunks` as a server: per `(epoch, index)`, the chunk it was
    /// dispersed, to lie about.
    chunks: BTreeMap<(u64, u16), (Hash, MerkleProof, ChunkPayload)>,
    /// `GarbageChunks` as a server: requests that came before their chunk,
    /// `(epoch, index, from, with proof)`.
    requests: Vec<(u64, u16, NodeId, bool)>,
}

impl<C: BlockCoder> Adversary<C> {
    pub(crate) fn new(
        me: NodeId,
        cluster: ClusterConfig,
        coder: C,
        kind: SimNodeKind,
    ) -> Adversary<C> {
        assert!(me.idx() < cluster.n, "node id out of range");
        Adversary {
            me,
            cluster,
            coder,
            kind,
            attacked_up_to: 0,
            withheld: Vec::new(),
            chunks: BTreeMap::new(),
            requests: Vec::new(),
        }
    }

    /// `GarbageChunks` as a retrieval server: keep each chunk it is sent,
    /// and answer each request for it — once the chunk is here — with
    /// inverted bytes of the chunk's length, bare or under the chunk's own
    /// root and proof, as the request asked.
    fn serve_garbage(&mut self, from: NodeId, env: &Envelope, sink: &mut dyn EffectSink) {
        let key = (env.epoch.0, env.index.0);
        match &env.payload {
            ProtoMsg::Vid(VidMsg::Chunk {
                root,
                proof,
                payload,
            }) if from == env.index => {
                self.chunks
                    .entry(key)
                    .or_insert_with(|| (*root, proof.clone(), payload.clone()));
            }
            ProtoMsg::Vid(VidMsg::RequestChunk) => self.requests.push((key.0, key.1, from, false)),
            ProtoMsg::Vid(VidMsg::RequestProven) => self.requests.push((key.0, key.1, from, true)),
            _ => return,
        }
        let chunks = &self.chunks;
        self.requests.retain(|&(epoch, index, to, proven)| {
            let Some((root, proof, payload)) = chunks.get(&(epoch, index)) else {
                return true;
            };
            let payload = match payload {
                ChunkPayload::Real(b) => ChunkPayload::Real(b.iter().map(|x| !x).collect()),
                synthetic => synthetic.clone(),
            };
            let msg = if proven {
                VidMsg::ReturnChunk {
                    root: *root,
                    proof: proof.clone(),
                    payload,
                }
            } else {
                VidMsg::ReturnBare { payload }
            };
            sink.send(to, Envelope::vid(Epoch(epoch), NodeId(index), msg));
            false
        });
    }

    /// One valid block for `epoch`, encoded: the raw material for the
    /// behaviours that disperse real (if ill-intentioned) payloads.
    fn valid_encoding(&self, epoch: u64) -> (Block, dl_vid::EncodedBlock) {
        let block = Block {
            header: dl_wire::BlockHeader {
                epoch: Epoch(epoch),
                proposer: self.me,
                v_array: vec![0; self.cluster.n],
            },
            body: vec![Tx::synthetic(self.me, epoch, 0, 64)],
        };
        let enc = self.coder.encode(&self.coder.pack(&block));
        (block, enc)
    }

    /// `DelayRelease`: build a fully valid dispersal, then sit on every
    /// chunk and vote until `now + RELEASE_DELAY_MS`.
    fn attack_delay_release(&mut self, epoch: u64, now: u64, sink: &mut dyn EffectSink) {
        let n = self.cluster.n;
        let (_, enc) = self.valid_encoding(epoch);
        let due = now + RELEASE_DELAY_MS;
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

    /// `SelectiveSend`: a valid dispersal one acknowledgement short of a
    /// quorum — even if every recipient acknowledges, completion needs
    /// `N − f` votes, and only `N − f − 2` peers ever saw a chunk, which
    /// also count the proposer's `GotChunk` its chunk implies.
    fn attack_selective_send(&self, epoch: u64, sink: &mut dyn EffectSink) {
        let n = self.cluster.n;
        let f = self.cluster.f;
        let (_, enc) = self.valid_encoding(epoch);
        let mut sent = 0usize;
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me || sent == n - f - 2 {
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
        let n = self.cluster.n;
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

    /// The equivocation payload for one epoch: a conflicting dispersal per
    /// peer plus contradictory BA votes.
    fn attack(&self, epoch: u64, sink: &mut dyn EffectSink) {
        let n = self.cluster.n;
        for i in 0..n {
            let to = NodeId(i as u16);
            if to == self.me {
                continue;
            }
            // Peer `i`'s block: a transaction of `64 + i` bytes.
            let block = Block {
                header: dl_wire::BlockHeader {
                    epoch: Epoch(epoch),
                    proposer: self.me,
                    v_array: vec![0; n],
                },
                body: vec![Tx::synthetic(self.me, epoch, i as u64, 64 + i as u32)],
            };
            let enc = self.coder.encode(&self.coder.pack(&block));
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

impl<C: BlockCoder> Engine for Adversary<C> {
    fn id(&self) -> NodeId {
        self.me
    }

    /// Faulty nodes ignore client transactions.
    fn submit_tx(&mut self, _tx: Tx, _now: u64, _sink: &mut dyn EffectSink) {}

    /// Reactive kinds attack an epoch the first time they see traffic for
    /// it; mute nodes drop everything.
    fn handle(&mut self, from: NodeId, env: Envelope, now: u64, sink: &mut dyn EffectSink) {
        if self.kind == SimNodeKind::GarbageChunks {
            self.serve_garbage(from, &env, sink);
        }
        let epoch = env.epoch.0;
        if epoch == 0 || epoch <= self.attacked_up_to || epoch > self.attacked_up_to + 8 {
            return; // once per epoch; bounded lookahead
        }
        self.attacked_up_to = epoch;
        match self.kind {
            SimNodeKind::Honest | SimNodeKind::Mute => {}
            SimNodeKind::Equivocate => self.attack(epoch, sink),
            SimNodeKind::DelayRelease => self.attack_delay_release(epoch, now, sink),
            SimNodeKind::SelectiveSend => self.attack_selective_send(epoch, sink),
            SimNodeKind::GarbageChunks => self.attack_garbage_chunks(epoch, sink),
        }
    }

    /// A `DelayRelease` node flushes whatever it has been sitting on once
    /// the release time passes; every other kind is purely reactive.
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

    // `stats` keeps the default `None`: a faulty node's self-reported
    // counters would be meaningless.
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::{EngineExt, RealBlockCoder};

    fn adversary(kind: SimNodeKind) -> Adversary<RealBlockCoder> {
        let cluster = ClusterConfig::new(4);
        let coder = RealBlockCoder::new(&cluster);
        Adversary::new(NodeId(3), cluster, coder, kind)
    }

    fn vote() -> Envelope {
        Envelope::ba(
            Epoch(1),
            NodeId(0),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        )
    }

    #[test]
    fn equivocator_attacks_each_epoch_once() {
        let mut byz = adversary(SimNodeKind::Equivocate);
        let first = byz.handle_vec(NodeId(0), vote(), 0);
        assert!(!first.is_empty());
        assert!(
            byz.handle_vec(NodeId(0), vote(), 5).is_empty(),
            "second attack on same epoch"
        );
    }

    #[test]
    fn mute_node_is_silent() {
        let mut byz = adversary(SimNodeKind::Mute);
        assert!(byz
            .submit_tx_vec(Tx::synthetic(NodeId(3), 0, 0, 10), 0)
            .is_empty());
        assert!(byz.poll_vec(1000).is_empty());
        assert!(byz.handle_vec(NodeId(0), vote(), 0).is_empty());
    }
}
