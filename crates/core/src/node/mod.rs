//! The DispersedLedger node automaton (paper §4).
//!
//! [`Node`] is the sans-IO engine every driver programs against, via the
//! [`crate::Engine`] trait. It exposes exactly three entry points —
//! [`Engine::submit_tx`], [`Engine::handle`] and [`Engine::poll`] — each
//! writing its effects into a caller-supplied [`crate::EffectSink`] for the
//! driver to execute. The node multiplexes, per epoch, `N` VID instances (one
//! [`dl_vid::VidServer`] per proposer plus our own `Disperser` and on-demand
//! `Retriever`s) and `N` [`dl_ba::Ba`] instances, and routes incoming
//! [`Envelope`]s to them by `(epoch, index)`. Drivers never see the inner
//! `VidEffect`/`BaEffect` vocabularies: everything is translated into the
//! unified effect set here.
//!
//! ## The epoch pipeline
//!
//! An epoch `e` goes through three phases, which overlap across epochs
//! (§4.5 "Running multiple epochs in parallel"):
//!
//! 1. **Dispersal + agreement**: every node disperses a block and the `N`
//!    BAs agree on which dispersals completed. Once `N − f` BAs decide 1,
//!    the node inputs 0 to every remaining BA (the ACS construction of
//!    HoneyBadger, §4.1). When *all* BAs of epoch `e` have output, the
//!    *agreement frontier* advances and — under DispersedLedger's propose
//!    gate — epoch `e + 1` may start. Under DL a VID `Ready` is also its
//!    sender's round-0 `BVal(1)` in the BA (`dl_ba`).
//! 2. **Retrieval**: a block is fetched the moment it is known to be
//!    needed ([`retrieval`]): its BA decides 1; it completes, under
//!    retrieve-then-vote; or, with inter-node linking (§4.3), its delivery
//!    is certain whatever its BA decides — asked for with our own `Ready`.
//!    Retrieval never blocks phase 1 of later epochs, nor delivery of
//!    earlier ones — that is the paper's core decoupling.
//! 3. **Delivery**: when every needed block of epoch `e` is retrieved, the
//!    epoch is delivered in a deterministic order (by `(epoch, proposer)`),
//!    advancing the *delivered frontier*. Fetching what its linking
//!    estimate names is a fallback here, for blocks we never saw complete.
//!
//! Phase 1 itself pipelines *across* epochs under load: a DL or DL-Coupled
//! node that has dispersed its block for the current epoch and already has
//! a full Nagle batch queued — `d` batches for an epoch `d` past the gate —
//! opens the next epoch while agreement for `e` is still running,
//! converting BA-round idle time on the uplink into throughput. The
//! trigger is the node's own backlog, so there is no knob; with less than
//! a batch waiting the schedule is the paper's gated one (see [`dispersal`]
//! for the rule, its byte budget and its depth bound).
//!
//! ## Instants
//!
//! What several instances broadcast alike — votes, `ReadyAsGot`s, and
//! `GotChunk`s under one digest (`dl_vid`'s "Bytes the receiver does not
//! need") — is held across the entry points of one driver time and leaves
//! as one envelope per peer: the node asks for `wake_at(now)`, and the poll
//! that answers sends it ([`crate::EffectSink::wake_at`]).
//!
//! ## Module layout
//!
//! The automaton is split by pipeline phase: [`dispersal`] (the propose
//! gate, the Nagle rule and the dispersal window), [`agreement`]
//! (VID completion, BA decisions and the ACS rule), [`delivery`] (epoch
//! finalization, inter-node linking and garbage collection),
//! [`retrieval`] (whom a retrieval asks and when it escalates),
//! [`recovery`] (write-ahead-log replay and restart catch-up) and
//! [`epochs`] (per-epoch state and the epoch ring buffer). This file owns
//! the struct, the entry points and the message routing.
//!
//! ## Variant switches
//!
//! The four evaluated protocols share this one engine; three questions to
//! [`crate::ProtocolVariant`] select the behaviour: `retrieve_then_vote`
//! makes BAs wait for the full block and couples epoch progression to
//! delivery (HoneyBadger), `links` turns on §4.3, and
//! `empty_when_lagging` is DL-Coupled's spam defence (§4.5).
//!
//! ## Liveness and quiescence
//!
//! A node proposes its epoch-`e` block when the Nagle thresholds fire (§5):
//! enough queued bytes, or the delay elapsing while it has queued
//! transactions *or has observed epoch-`e` traffic from a peer*. The
//! peer-activity rule keeps every honest node proposing (possibly an empty
//! block) whenever the epoch is moving — required for the `N − f` BA
//! quorum — while letting a fully idle cluster go quiescent, which the
//! discrete-event driver (`dl-sim`) relies on to detect completion.
//!
//! Under retrieve-then-vote (HoneyBadger, HB-Link) the peer traffic that
//! counts is a peer's epoch-`e` block *in hand*: an idle node joins the
//! epoch when it has something to vote 1 for. Joining on the first message
//! lets `N − f` empty blocks complete, download and commit while a loaded
//! peer's block is still being fetched; ACS then votes that block out,
//! plain HoneyBadger re-queues and re-proposes it, and the same race runs
//! again — for ever, once votes stopped waiting behind the very chunks
//! being fetched (`transport.rs`). A loaded node never waits: its own
//! queue is its trigger.

mod agreement;
mod delivery;
mod dispersal;
mod epochs;
mod recovery;
mod retrieval;
#[cfg(test)]
mod tests;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dl_ba::BaEffect;
use dl_crypto::Hash;
use dl_vid::VidEffect;
use dl_wire::{
    got_digest, BaMsg, Block, Envelope, Epoch, NodeId, NodeSet, ProtoMsg, SyncMsg, Tx, VidMsg,
};

use crate::coder::BlockCoder;
use crate::engine::{EffectSink, Engine};
use crate::linking::CompletionTracker;
use crate::queue::InputQueue;
use crate::records::StoreRecord;
use crate::variant::NodeConfig;

use epochs::{EpochRing, EpochState};
use retrieval::RetrievalTimer;

/// The reified effect vocabulary of the node automaton.
///
/// Engines emit effects by calling the corresponding [`EffectSink`]
/// methods; this enum is the *value* form of that vocabulary, used where
/// effects are stored or inspected (`Vec<NodeEffect>` is itself a sink).
/// Together with the three [`Engine`] entry points this is the entire
/// driver-facing contract: transports, simulators and benchmarks never see
/// the inner protocol types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeEffect {
    /// Put this envelope on the wire to one peer. The node never sends to
    /// itself — local sub-protocol traffic is looped back internally.
    Send(NodeId, Envelope),
    /// A block reached its position in the total order.
    Deliver(DeliveredBlock),
    /// Ask the driver to call [`Engine::poll`] no later than this time (ms on
    /// the driver's clock). Advisory: extra or duplicate polls are harmless,
    /// and periodic-tick drivers may ignore it. At or before now it asks
    /// for the poll that ends the instant ([`EffectSink::wake_at`]).
    WakeAt(u64),
    /// An observability event (proposals, epoch completions). Drivers may
    /// log or aggregate these; ignoring them is always safe.
    Stat(StatEvent),
    /// A write-ahead record: a persistent driver appends it to its log
    /// before flushing the sends that follow it. Only emitted when the sink
    /// reports [`EffectSink::persists`].
    Persist(StoreRecord),
    /// Peer `to` cancelled the retrieval of `(epoch, index)`: queued
    /// `ReturnChunk`s toward it may be dropped. Advisory.
    PurgeReturns {
        to: NodeId,
        epoch: Epoch,
        index: NodeId,
    },
}

/// Observability events surfaced through [`NodeEffect::Stat`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatEvent {
    /// We proposed our block for `epoch`.
    Proposed {
        epoch: Epoch,
        txs: usize,
        payload_bytes: usize,
        empty: bool,
    },
    /// Epoch `epoch` was fully delivered (`blocks` blocks in this batch,
    /// including any recovered by inter-node linking). Driver-clock stamps:
    /// `decided_ms`, the last of its `N` BAs decided (0 if replayed from a
    /// log); `in_hand_ms`, delivery first found every committed block
    /// retrieved — from there to the event is the wait for linked blocks.
    EpochDelivered {
        epoch: Epoch,
        blocks: usize,
        decided_ms: u64,
        in_hand_ms: u64,
    },
}

/// A block in its final position in the total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveredBlock {
    /// The epoch the block was proposed in.
    pub epoch: Epoch,
    /// The proposer whose VID instance carried it.
    pub proposer: NodeId,
    /// The block contents. `None` means the proposer was Byzantine: the
    /// dispersal completed but decoded to `BAD_UPLOADER` or to bytes that
    /// are not a valid block. All correct nodes observe the same `None`
    /// (AVID-M's Correctness property), so the slot is consistently empty.
    pub block: Option<Block>,
    /// Whether inter-node linking (§4.3) recovered this block rather than
    /// its own epoch's BA committing it.
    pub via_link: bool,
    /// Driver-clock time of delivery.
    pub delivered_ms: u64,
}

/// Counters maintained by the node (also see [`StatEvent`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    pub txs_submitted: u64,
    pub txs_delivered: u64,
    /// Transactions pushed back to the input queue because our block missed
    /// its epoch's commit (non-linking variants only, §4.2).
    pub txs_requeued: u64,
    pub blocks_proposed: u64,
    pub empty_blocks_proposed: u64,
    pub blocks_delivered: u64,
    /// Delivered slots that were `None` (Byzantine proposer).
    pub malformed_blocks_delivered: u64,
    /// Deliveries recovered by inter-node linking.
    pub linked_deliveries: u64,
    /// Retrievals of linked blocks that delivery had to start itself, at
    /// the frontier: the fallback the certainty trigger should leave idle.
    pub linked_fetches_at_frontier: u64,
    pub epochs_delivered: u64,
    pub retrievals_started: u64,
    /// Chunk requests (bare or proven) issued by our retrievals, the
    /// loopback to our own server included: over-fetch is this ÷ (`k` ·
    /// `retrievals_started`).
    pub chunk_requests_sent: u64,
    /// Retrievals that fell back to asking every peer (at most once each):
    /// on a deadline, on a bad proven chunk, or from bare chunks to proofs.
    pub retrievals_escalated: u64,
    /// Instance messages handed to the driver: an envelope counts once per
    /// instance it names, so a batch of `m` broadcasts counts `m`. The
    /// number of envelopes is not counted.
    pub msgs_sent: u64,
    /// `wire_size` of every envelope handed to the driver, counted as it is
    /// handed over — *before* a later `Cancel` purges a queued `ReturnChunk`
    /// (on `vbw-sat-dl` 2.44 of 24.98 GB per sub-run, 9.8 %, is purged and
    /// never transmitted) and without the header of each extra segment a
    /// chunk is cut into. `dl-e2e` reads it as the wire; leave it alone
    /// until the benchmark is thawed.
    pub bytes_sent: u64,
}

/// Internal routing item: a sub-protocol event to process. Messages a node
/// sends to itself (every `Broadcast` includes the sender) are looped back
/// through this queue instead of touching the wire.
enum Work {
    Vid {
        epoch: u64,
        index: usize,
        from: NodeId,
        msg: VidMsg,
    },
    Ba {
        epoch: u64,
        index: usize,
        from: NodeId,
        msg: BaMsg,
    },
    BaInput {
        epoch: u64,
        index: usize,
        value: bool,
    },
    Sync {
        from: NodeId,
        epoch: u64,
        msg: SyncMsg,
    },
    /// A `GotChunk` batch: its digest is checked when its turn comes, so
    /// a member's chunk earlier in the same burst is in hand by then.
    GotBatch { from: NodeId, env: Envelope },
}

/// The DispersedLedger node automaton. See the module docs for the protocol
/// walk-through and `dl-core`'s crate docs for a runnable example.
pub struct Node<C: BlockCoder> {
    me: NodeId,
    cfg: NodeConfig,
    coder: C,
    queue: InputQueue,
    epochs: EpochRing<EpochState<C>>,
    /// `V[j]`: per peer, the contiguous prefix of locally-completed VIDs
    /// (what we report in our blocks' observation arrays, Fig. 17).
    trackers: Vec<CompletionTracker>,
    /// Per peer, the set of epochs whose block we have delivered.
    delivered: Vec<CompletionTracker>,
    /// Bodies of our own proposals, kept until commit/requeue resolution
    /// (only populated for non-linking variants, which may drop blocks).
    my_txs: BTreeMap<u64, Vec<Tx>>,
    /// Epochs in which *we* proposed a non-empty block that has not been
    /// delivered yet (linking variants only). Only these entries count as
    /// link-rescue proposal pressure: a node keeps the pipeline moving for
    /// its own stranded transactions, never for peers' empty blocks —
    /// otherwise extreme uplink asymmetry makes the pressure
    /// self-sustaining (every rescue epoch strands a fresh empty block of
    /// the straggler's, which re-arms the pressure forever).
    my_nonempty_proposals: BTreeSet<u64>,
    /// Whether anything changed since the last delivery attempt that could
    /// let `try_finalize_next` make progress (a BA decision or a finished
    /// retrieval). Skipping the attempt otherwise keeps the per-event cost
    /// of the hot loop constant.
    pipeline_dirty: bool,
    /// Reusable work-queue buffer for [`Node::run`] — every inbound message
    /// drives one `run` call, so allocating a fresh queue per message shows
    /// up directly in simulator throughput.
    work_scratch: VecDeque<Work>,
    /// The epoch our next proposal belongs to.
    next_propose_epoch: u64,
    /// Highest epoch we have proposed for (0 = none yet).
    proposed_up_to: u64,
    /// When `next_propose_epoch` was entered (Nagle delay baseline, §5).
    /// Lazily initialized to the first driver timestamp we observe, so a
    /// node constructed mid-run does not see an already-expired delay.
    epoch_entered_ms: u64,
    /// When we last proposed (not a filler): the Nagle delay's baseline
    /// while the pending epoch is live or our batch pays for it (see
    /// [`dispersal`]). Initialized with `epoch_entered_ms`.
    last_proposed_ms: u64,
    clock_started: bool,
    /// All epochs `<= agreement_frontier` have every BA decided.
    agreement_frontier: u64,
    /// All epochs `<= delivered_frontier` are fully delivered.
    delivered_frontier: u64,
    /// Epochs below this have had their delivered slots garbage-collected
    /// (see `delivery::gc_epochs`).
    gc_horizon: u64,
    /// Payload bytes of our own proposals in epochs whose agreement has
    /// not finished, oldest first — the dispersal window's byte-budget
    /// ledger. Drained as the agreement frontier advances; rebuilt from
    /// the `Proposed` records on restart.
    inflight: VecDeque<(u64, u64)>,
    /// Running sum of the `inflight` byte column.
    inflight_bytes: u64,
    /// Restart catch-up (see [`Engine::restore`]): while true, the node
    /// periodically asks peers for the outcomes of epochs it missed.
    sync_active: bool,
    /// Per-epoch peer-attested outcome vectors collected during catch-up.
    sync_tally: BTreeMap<u64, Vec<(NodeId, Vec<bool>)>>,
    /// When the last catch-up request round was broadcast (0 = never).
    sync_last_request_ms: u64,
    /// Consecutive request rounds that adopted nothing; two in a row means
    /// we have reached the cluster's live edge and catch-up ends.
    sync_rounds_idle: u32,
    /// Whether anything was adopted since the last request round.
    sync_progress: bool,
    /// BA instances in epochs below this line run in observer mode: a
    /// pre-crash message of ours could have touched them, so re-initiating
    /// `BVal`/`Aux` there risks equivocating against votes we no longer
    /// remember sending. Derived in [`Engine::restore`].
    ba_observe_below: u64,
    /// The driver's clock at the current entry point.
    now: u64,
    /// Per peer, how many chunk requests of our retrievals it has neither
    /// answered nor been released from by a `Cancel` — the load signal of
    /// the retrieval target choice (see [`retrieval`]). Not persisted: a
    /// restarted node owes and is owed nothing it remembers, so the ledger
    /// restarts at zero and catch-up retrievals choose targets like any
    /// other.
    chunk_requests_owed: Vec<u32>,
    /// Per peer, requests it let run into a retrieval's deadline (or
    /// answered with a chunk that proved it faulty) since it last returned
    /// a chunk: debt that decoding does not forgive, only the peer's next
    /// answer does. Added to `chunk_requests_owed` when targets are ranked.
    chunk_requests_defaulted: Vec<u32>,
    /// `(deadline, epoch, index, re-asks so far)` of retrievals that may
    /// still escalate or re-ask.
    retrieval_deadlines: BTreeSet<(u64, u64, u16, u8)>,
    /// This node's observed retrieval times, for the escalation deadline.
    retrieval_timer: RetrievalTimer,
    /// This instant's broadcasts of batchable messages, as `(epoch,
    /// message, instances)` in the order each group opened: held while the
    /// driver's clock stays at [`Node::now`] and sent by the poll that
    /// answers our `wake_at(now)`, or first thing at a later instant — one
    /// envelope per peer for all of a group's instances (see [`Envelope`]'s
    /// batches). A `GotChunk` group is keyed by its epoch alone (its root
    /// field zeroed): each member's root is its server's stored one.
    batched: Vec<(u64, ProtoMsg, NodeSet)>,
    stats: NodeStats,
}

impl<C: BlockCoder> Node<C> {
    /// A node with identity `me` in the configured cluster.
    pub fn new(me: NodeId, cfg: NodeConfig, coder: C) -> Node<C> {
        let n = cfg.cluster.n;
        assert!(me.idx() < n, "node id out of range");
        Node {
            me,
            cfg,
            coder,
            queue: InputQueue::new(),
            epochs: EpochRing::new(),
            trackers: vec![CompletionTracker::new(); n],
            delivered: vec![CompletionTracker::new(); n],
            my_txs: BTreeMap::new(),
            my_nonempty_proposals: BTreeSet::new(),
            pipeline_dirty: false,
            work_scratch: VecDeque::new(),
            next_propose_epoch: 1,
            proposed_up_to: 0,
            epoch_entered_ms: 0,
            last_proposed_ms: 0,
            clock_started: false,
            agreement_frontier: 0,
            delivered_frontier: 0,
            gc_horizon: 0,
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            sync_active: false,
            sync_tally: BTreeMap::new(),
            sync_last_request_ms: 0,
            sync_rounds_idle: 0,
            sync_progress: false,
            ba_observe_below: 0,
            now: 0,
            chunk_requests_owed: vec![0; n],
            chunk_requests_defaulted: vec![0; n],
            retrieval_deadlines: BTreeSet::new(),
            retrieval_timer: RetrievalTimer::default(),
            batched: Vec::new(),
            stats: NodeStats::default(),
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// The node's configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Highest epoch with all `N` BAs decided (contiguously from 1).
    pub fn agreement_frontier(&self) -> Epoch {
        Epoch(self.agreement_frontier)
    }

    /// Highest fully-delivered epoch (contiguously from 1).
    pub fn delivered_frontier(&self) -> Epoch {
        Epoch(self.delivered_frontier)
    }

    /// The epoch our next proposal will belong to.
    pub fn next_propose_epoch(&self) -> Epoch {
        Epoch(self.next_propose_epoch)
    }

    /// Validate an inbound envelope and, if acceptable, enqueue its work
    /// item. Malformed, out-of-range and too-far-future envelopes are
    /// dropped here (Byzantine peers may send anything).
    fn admit_envelope(&mut self, from: NodeId, env: Envelope, work: &mut VecDeque<Work>) {
        let n = self.cfg.cluster.n;
        let e = env.epoch.0;
        if e == 0 || e > self.agreement_frontier + self.cfg.horizon() {
            return; // anti-DoS epoch bound (see `NodeConfig::horizon`)
        }
        // Below the GC horizon we only keep routing to epochs that still
        // hold live state (undelivered slots awaiting a linking rescue);
        // fully-collected epochs must not be resurrected by stale or
        // Byzantine traffic.
        if e < self.gc_horizon && !self.epochs.contains(e) {
            return;
        }
        if env.last_member().idx() >= n || from.idx() >= n {
            return;
        }
        // Catch-up sync messages are routed before the epoch-state checks:
        // a Request names an epoch *range* starting at the requester's
        // frontier (possibly one we collected long ago), and neither kind
        // should instantiate epoch state or count as proposal pressure.
        if let ProtoMsg::Sync(msg) = env.payload {
            if from != self.me {
                work.push_back(Work::Sync {
                    from,
                    epoch: e,
                    msg,
                });
            }
            return;
        }
        // §4.2 footnote 3: chunks of `VID^e_i` are only accepted from node
        // `i` itself — anyone else pushing chunks is Byzantine.
        if matches!(env.payload, ProtoMsg::Vid(VidMsg::Chunk { .. })) && from != env.index {
            return;
        }
        self.ensure_epoch(e);
        // Retrieve-then-vote variants take their pressure from a block in
        // hand instead (`on_retrieved`).
        if from != self.me && !self.cfg.variant.retrieve_then_vote() {
            self.epochs.get_mut(e).expect("just ensured").activity = true;
        }
        if matches!(env.payload, ProtoMsg::Vid(VidMsg::GotChunk { .. })) && env.is_batch() {
            work.push_back(Work::GotBatch { from, env });
            return;
        }
        // A batch is one work item per member, as if each had come alone.
        let members = env.members();
        match env.payload {
            ProtoMsg::Vid(msg) if !env.is_batch() => work.push_back(Work::Vid {
                epoch: e,
                index: env.index.idx(),
                from,
                msg,
            }),
            ProtoMsg::Vid(msg) => work.extend(members.map(|m| Work::Vid {
                epoch: e,
                index: m.idx(),
                from,
                msg: msg.clone(),
            })),
            ProtoMsg::Ba(msg) => work.extend(members.map(|m| Work::Ba {
                epoch: e,
                index: m.idx(),
                from,
                msg,
            })),
            #[expect(
                clippy::unreachable,
                reason = "the match above consumes every Sync message; one \
                          reaching this arm is a routing bug worth crashing on"
            )]
            ProtoMsg::Sync(_) => unreachable!("sync handled above"),
        }
    }

    // ---- the engine ----

    /// Central pump: drain the work queue, then advance the epoch pipeline
    /// (deliveries, proposals), repeating until a fixed point.
    fn run(&mut self, mut work: VecDeque<Work>, now: u64, sink: &mut dyn EffectSink) {
        // A later instant: what the last one held leaves first.
        if now != self.now {
            self.send_batched(sink);
        }
        self.now = now;
        if !self.clock_started {
            self.clock_started = true;
            self.epoch_entered_ms = now;
            self.last_proposed_ms = now;
            // `restore` is silent: what its log shows certain is fetched now.
            for j in 0..self.cfg.cluster.n {
                self.fetch_certain(j, 1, self.trackers[j].prefix(), &mut work, sink);
            }
        }
        loop {
            while let Some(w) = work.pop_front() {
                self.step(w, &mut work, sink);
            }
            self.advance(now, &mut work, sink);
            if work.is_empty() {
                break;
            }
        }
        // Hand the (now empty) buffer back for the next entry point.
        self.work_scratch = work;
    }

    /// Ends an entry point other than `poll`: the instant's batches stay
    /// open until the driver has handed over everything else of `now`.
    fn hold(&self, now: u64, sink: &mut dyn EffectSink) {
        if !self.batched.is_empty() {
            sink.wake_at(now);
        }
    }

    fn step(&mut self, w: Work, work: &mut VecDeque<Work>, out: &mut dyn EffectSink) {
        match w {
            Work::Vid {
                epoch,
                index,
                from,
                msg,
            } => {
                self.ensure_epoch(epoch);
                let me = self.me;
                let persists = out.persists();
                // Split borrows: the epoch state and the coder live in
                // disjoint fields.
                let Node { coder, epochs, .. } = self;
                let st = epochs.get_mut(epoch).expect("just ensured");
                if matches!(msg, VidMsg::ReturnChunk { .. } | VidMsg::ReturnBare { .. }) {
                    let Some(r) = st.retrievers[index].as_mut() else {
                        return; // no retrieval running: ignore
                    };
                    let answers_a_request = r.awaiting(from);
                    let proven = matches!(msg, VidMsg::ReturnChunk { .. });
                    let effects = r.handle(coder, from, msg);
                    if answers_a_request {
                        // A peer that serves what it was asked for is
                        // forgiven its defaults.
                        self.chunk_requests_owed[from.idx()] -= 1;
                        self.chunk_requests_defaulted[from.idx()] = 0;
                    }
                    if self.note_escalation(&effects) && proven {
                        // Escalation on evidence: this chunk proved `from`
                        // faulty. (A bare chunk that completes a failed
                        // re-encoding blames nobody in particular.)
                        self.chunk_requests_defaulted[from.idx()] += 1;
                    }
                    self.apply_vid_effects(epoch, index, effects, work, out);
                    return;
                }
                // Under DL a `Ready` is also its sender's round-0 `BVal(1)`,
                // whatever its root: a root-less one counts at once.
                let votes = match msg {
                    VidMsg::Ready { .. } | VidMsg::ReadyAsGot if !st.bas.is_empty() => {
                        st.bas[index].ready(from)
                    }
                    _ => Vec::new(),
                };
                let effects = {
                    // §5 early cancellation, extended to the send path: the
                    // canceller no longer wants chunks, so anything still
                    // queued toward it is dead weight.
                    if matches!(msg, VidMsg::Cancel) && from != me {
                        out.purge_returns(from, Epoch(epoch), NodeId(index as u16));
                    }
                    match st.servers[index].as_mut() {
                        Some(server) => {
                            let had_chunk = server.stored_chunk().is_some();
                            let effects = server.handle(coder, from, msg);
                            // WAL: chunk custody becomes durable before the
                            // `GotChunk` acknowledgement (queued in
                            // `effects`) reaches the wire.
                            if persists && !had_chunk {
                                if let Some((root, payload, proof)) = server.stored_chunk() {
                                    out.persist(StoreRecord::Chunk {
                                        epoch: Epoch(epoch),
                                        index: NodeId(index as u16),
                                        root: *root,
                                        proof: proof.clone(),
                                        payload: payload.clone(),
                                    });
                                }
                            }
                            effects
                        }
                        None => Vec::new(), // slot garbage-collected
                    }
                };
                self.apply_vid_effects(epoch, index, effects, work, out);
                self.apply_ba_effects(epoch, index, votes, work, out);
            }
            Work::Ba {
                epoch,
                index,
                from,
                msg,
            } => {
                self.ensure_epoch(epoch);
                let st = self.epochs.get_mut(epoch).expect("just ensured");
                if st.bas.is_empty() {
                    return; // epoch garbage-collected
                }
                let effects = st.bas[index].handle(from, msg);
                self.apply_ba_effects(epoch, index, effects, work, out);
            }
            Work::BaInput {
                epoch,
                index,
                value,
            } => {
                self.ensure_epoch(epoch);
                let st = self.epochs.get_mut(epoch).expect("just ensured");
                if st.bas.is_empty() || st.bas[index].has_input() {
                    return;
                }
                let effects = st.bas[index].input(value);
                self.apply_ba_effects(epoch, index, effects, work, out);
            }
            Work::Sync { from, epoch, msg } => self.on_sync(from, epoch, msg, work, out),
            Work::GotBatch { from, env } => self.on_got_batch(from, env, work, out),
        }
    }

    /// A peer's `GotChunk` batch: its members' `GotChunk`s under our own
    /// roots if the digest checks, else one `RootsWanted` for them all.
    fn on_got_batch(
        &mut self,
        from: NodeId,
        env: Envelope,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        let ProtoMsg::Vid(VidMsg::GotChunk { root: digest }) = env.payload else {
            return;
        };
        let Some(roots) = self.stored_roots(&env) else {
            return;
        };
        let epoch = env.epoch.0;
        match roots.into_iter().collect::<Option<Vec<_>>>() {
            Some(roots) if got_digest(env.epoch, roots.iter().copied()) == digest => {
                for (m, root) in roots {
                    let msg = VidMsg::GotChunk { root };
                    let index = m.idx();
                    self.step(
                        Work::Vid {
                            epoch,
                            index,
                            from,
                            msg,
                        },
                        work,
                        out,
                    );
                }
            }
            _ => {
                let mut ask = Envelope::vid(env.epoch, env.index, VidMsg::RootsWanted);
                for m in env.members().skip(1) {
                    ask.add_member(m);
                }
                self.push_send(from, ask, out);
            }
        }
    }

    fn apply_vid_effects(
        &mut self,
        epoch: u64,
        index: usize,
        effects: Vec<VidEffect<C::Block>>,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        for eff in effects {
            match eff {
                VidEffect::Send(to, msg) => {
                    // The retrieval ledger follows the effects: only
                    // retrievers emit these two, a request puts its target
                    // in our debt (once per retrieval: an escalation's
                    // re-ask adds none) and a cancel releases it.
                    match msg {
                        VidMsg::RequestChunk | VidMsg::RequestProven => {
                            let reask = self.epochs.get(epoch).is_some_and(|st| {
                                st.retrievers[index].as_ref().is_some_and(|r| r.reasks(to))
                            });
                            self.chunk_requests_owed[to.idx()] += u32::from(!reask);
                            self.stats.chunk_requests_sent += 1;
                        }
                        VidMsg::Cancel => self.chunk_requests_owed[to.idx()] -= 1,
                        _ => {}
                    }
                    if to == self.me {
                        work.push_back(Work::Vid {
                            epoch,
                            index,
                            from: self.me,
                            msg,
                        });
                    } else {
                        self.push_send(
                            to,
                            Envelope::vid(Epoch(epoch), NodeId(index as u16), msg),
                            out,
                        );
                    }
                }
                VidEffect::Broadcast(msg) => {
                    let ready = matches!(msg, VidMsg::Ready { .. } | VidMsg::ReadyAsGot);
                    work.push_back(Work::Vid {
                        epoch,
                        index,
                        from: self.me,
                        msg: msg.clone(),
                    });
                    self.broadcast(epoch, index, ProtoMsg::Vid(msg), out);
                    // Only our server broadcasts. Its `Ready` asks for the
                    // block its completion would make certain (`retrieval`).
                    if ready && self.trackers[index].prefix() + 1 >= epoch {
                        self.fetch_certain(index, epoch, epoch, work, out);
                    }
                }
                VidEffect::Complete(root) => self.on_complete(epoch, index, root, work, out),
                VidEffect::Retrieved(r) => self.on_retrieved(epoch, index, r, work),
            }
        }
    }

    fn apply_ba_effects(
        &mut self,
        epoch: u64,
        index: usize,
        effects: Vec<BaEffect>,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        for eff in effects {
            match eff {
                BaEffect::Broadcast(msg) => {
                    work.push_back(Work::Ba {
                        epoch,
                        index,
                        from: self.me,
                        msg,
                    });
                    self.broadcast(epoch, index, ProtoMsg::Ba(msg), out);
                }
                BaEffect::Decide(v) => self.on_decide(epoch, index, v, work, out),
            }
        }
    }

    /// Send `msg` of instance `(epoch, index)` to every peer: at once, or,
    /// for a batchable message, with this entry point's batch of it.
    fn broadcast(&mut self, epoch: u64, index: usize, msg: ProtoMsg, out: &mut dyn EffectSink) {
        let instance = NodeId(index as u16);
        if !msg.batchable() {
            return self.send_to_peers(Envelope::new(Epoch(epoch), instance, msg), out);
        }
        // One group per epoch: each member's root is filled in as it leaves.
        let msg = match msg {
            ProtoMsg::Vid(VidMsg::GotChunk { .. }) => {
                ProtoMsg::Vid(VidMsg::GotChunk { root: Hash::ZERO })
            }
            msg => msg,
        };
        match self
            .batched
            .iter_mut()
            .rev()
            .find(|(e, m, _)| *e == epoch && *m == msg)
        {
            Some((_, _, members)) => {
                members.insert(instance);
            }
            None => {
                let mut members = NodeSet::new();
                members.insert(instance);
                self.batched.push((epoch, msg, members));
            }
        }
    }

    /// Send the held batches: per group, as few envelopes as
    /// [`Envelope::BATCH_SPAN`] allows, each to every peer.
    fn send_batched(&mut self, out: &mut dyn EffectSink) {
        let mut batched = std::mem::take(&mut self.batched);
        for (epoch, msg, members) in batched.drain(..) {
            let mut open: Option<Envelope> = None;
            for m in members.iter() {
                if open.as_mut().is_some_and(|env| env.add_member(m)) {
                    continue;
                }
                let next = Envelope::new(Epoch(epoch), m, msg.clone());
                if let Some(env) = open.replace(next) {
                    self.send_sealed(env, out);
                }
            }
            if let Some(env) = open {
                self.send_sealed(env, out);
            }
        }
        // Keep the buffer for the next instant.
        self.batched = batched;
    }

    /// Our stored chunk's root for each instance `env` names (`None` where
    /// we hold no chunk), or `None` if its epoch or a slot was collected.
    fn stored_roots(&self, env: &Envelope) -> Option<Vec<Option<(NodeId, Hash)>>> {
        let st = self.epochs.get(env.epoch.0)?;
        env.members()
            .map(|m| {
                let server = st.servers[m.idx()].as_ref()?;
                Some(server.stored_chunk().map(|(root, ..)| (m, *root)))
            })
            .collect()
    }

    /// Send a held envelope to every peer. A `GotChunk` one names its
    /// member's root, or, for several, the digest of their roots.
    fn send_sealed(&mut self, mut env: Envelope, out: &mut dyn EffectSink) {
        if matches!(env.payload, ProtoMsg::Vid(VidMsg::GotChunk { .. })) {
            let roots = self.stored_roots(&env);
            let Some(roots) = roots.and_then(|r| r.into_iter().collect::<Option<Vec<_>>>()) else {
                return;
            };
            let root = match roots[..] {
                [(_, only)] => only,
                _ => got_digest(env.epoch, roots),
            };
            env.payload = ProtoMsg::Vid(VidMsg::GotChunk { root });
        }
        self.send_to_peers(env, out);
    }

    fn send_to_peers(&mut self, env: Envelope, out: &mut dyn EffectSink) {
        for to in (0..self.cfg.cluster.n as u16).map(NodeId) {
            if to != self.me {
                self.push_send(to, env.clone(), out);
            }
        }
    }

    /// Counts each instance a batch names as one message.
    fn push_send(&mut self, to: NodeId, env: Envelope, out: &mut dyn EffectSink) {
        self.stats.msgs_sent += env.members().count() as u64;
        self.stats.bytes_sent += env.wire_size() as u64;
        out.send(to, env);
    }

    fn ensure_epoch(&mut self, epoch: u64) {
        if self.epochs.contains(epoch) {
            return;
        }
        let n = self.cfg.cluster.n;
        let f = self.cfg.cluster.f;
        let seed = self.cfg.cluster.coin_seed;
        let salts = (0..n).map(|j| {
            Hash::digest_parts(&[
                b"dl-ba-salt",
                &seed,
                &epoch.to_le_bytes(),
                &(j as u64).to_le_bytes(),
            ])
        });
        let mut st = EpochState::new(self.me, n, f, salts);
        for ba in &mut st.bas {
            if !self.cfg.variant.retrieve_then_vote() {
                ba.vote_by_ready(); // availability is the first vote (`dl_ba`)
            }
            // Restart recovery: a pre-crash message of ours could have
            // touched any epoch below the observe line, including ones
            // whose state is created lazily after the restart.
            if epoch < self.ba_observe_below {
                ba.observe_only();
            }
        }
        self.epochs.insert(epoch, st);
    }
}

impl<C: BlockCoder> Engine for Node<C> {
    fn id(&self) -> NodeId {
        self.me
    }

    fn submit_tx(&mut self, tx: Tx, now: u64, sink: &mut dyn EffectSink) {
        self.stats.txs_submitted += 1;
        self.queue.push(tx);
        let work = std::mem::take(&mut self.work_scratch);
        self.run(work, now, sink);
        self.hold(now, sink);
    }

    /// Malformed, out-of-range and too-far-future envelopes are dropped
    /// (Byzantine peers may send anything).
    fn handle(&mut self, from: NodeId, env: Envelope, now: u64, sink: &mut dyn EffectSink) {
        let mut work = std::mem::take(&mut self.work_scratch);
        self.admit_envelope(from, env, &mut work);
        self.run(work, now, sink);
        self.hold(now, sink);
    }

    /// Each envelope is validated and enqueued, then the engine runs once —
    /// the pipeline-advance fixed cost is paid per burst, not per message.
    fn handle_burst(
        &mut self,
        from: NodeId,
        envs: &mut Vec<Envelope>,
        now: u64,
        sink: &mut dyn EffectSink,
    ) {
        let mut work = std::mem::take(&mut self.work_scratch);
        for env in envs.drain(..) {
            self.admit_envelope(from, env, &mut work);
        }
        self.run(work, now, sink);
        self.hold(now, sink);
    }

    /// Drives the Nagle proposal rule and anything else that is time-
    /// rather than message-triggered, then sends the instant's batches. A
    /// poll at the instant the last entry point ran only sends: that entry
    /// point ran the engine to a fixed point at `now`, and every timer the
    /// engine sets lies after the instant that set it.
    fn poll(&mut self, now: u64, sink: &mut dyn EffectSink) {
        if !self.clock_started || now != self.now {
            let work = std::mem::take(&mut self.work_scratch);
            self.run(work, now, sink);
        }
        self.send_batched(sink);
    }

    fn stats(&self) -> Option<NodeStats> {
        Some(self.stats)
    }

    fn restore(&mut self, records: &[StoreRecord]) {
        self.replay(records)
    }
}
