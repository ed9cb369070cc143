//! Proposal-side pipeline: the propose gate, the backlog-triggered
//! dispersal window, and the Nagle proposal rule (paper §5).
//!
//! ## The dispersal window
//!
//! The paper's engine advances the propose frontier one epoch at a time:
//! under DispersedLedger's gate, dispersal of `e + 1` waits for every BA
//! of `e` to output, leaving the uplink idle during BA rounds. A node that
//! has more to say does not wait. Once its block for the current
//! epoch is out it opens the next epoch past the gate when all of these
//! hold, each a measurement it already takes:
//!
//! * **Trigger — `d` full Nagle batches are queued** for an epoch that
//!   would open `d = next_propose_epoch − gate()` epochs past the gate
//!   (`queue.bytes() >= d × propose_size`). The node's own backlog is the
//!   signal, so each node sizes its pipeline from its own load (Dispel),
//!   and every pipelined epoch carries at least a full block. The first
//!   pipelined epoch (`d = 1`) opens on one batch; each deeper one waits
//!   for one batch more, so a saturated node opens fewer, fuller epochs
//!   and pays each epoch's `N³` control envelopes and `N` coder calls less
//!   often. With less than a batch waiting the branch never fires and the
//!   schedule is the paper's gated one, message for message.
//! * **Byte budget** — the payload of our own proposals in epochs whose
//!   agreement has not finished stays under [`WINDOW_BUDGET_BATCHES`] ×
//!   `propose_size`; the ledger drains as the agreement frontier moves.
//! * **Depth** — at most half the admission horizon
//!   ([`crate::NodeConfig::horizon`]) past the gate, so a peer whose
//!   frontier trails ours by as much still admits what we send.
//! * **Not lagging** — DL-Coupled's `empty_when_lagging` rule (§4.5) would
//!   turn the block empty and leave the batch queued; an epoch opened for
//!   a batch it may not carry is pure control traffic.
//!
//! Retrieve-then-vote variants (HoneyBadger, HB-Link) never take the
//! branch: proposing in lockstep with delivery is what the baseline is.
//!
//! ## No epoch without a block of ours
//!
//! Loaded peers turn epochs over faster than an idle node's Nagle delay, so
//! the gate can pass an epoch before the node proposed in it. Linking
//! (§4.3) names a proposer's blocks through the *contiguous* prefix `V[j]`
//! of its completed dispersals: skipping the epoch — what the engine did
//! before the window — leaves a hole no later block of the node can be
//! linked across, and any of them that misses its own epoch's commit is
//! lost with its transactions (a third of the saturated benchmark's
//! closed-loop clients, once the window was on). AVID-M completes whatever
//! BA decided, so a linking node disperses an empty filler for that epoch
//! instead. It never carries transactions — a block known to have missed
//! its commit is the slowest way to deliver them — and a node catching up
//! after a restart does not back-fill: the epochs it missed while down
//! stay a hole, as they always were.
//!
//! The rejected triggers — the Nagle *delay*, our own dispersal's
//! `Complete` — are in the README ("Pipelined dissemination"), with what
//! each measured.
//!
//! ## The Nagle clock
//!
//! Counted from entry into the epoch, the 100 ms Nagle delay (§5) idles
//! every epoch at light load for the delay after the previous one
//! decides. A DL or DL-Coupled node counts it from its own last proposal
//! instead, in two cases:
//!
//! * **The epoch is live**: a peer's traffic gave it `activity`, or a
//!   block of ours awaits link rescue. The epoch runs whether we join or
//!   not, and waiting only makes our block late.
//! * **Our queue holds an epoch's worth**: at least the bytes of roots and
//!   Merkle paths one dispersal of ours sends, `N · 32 · (1 + ⌈log₂ N⌉)`
//!   (6,144 at N = 32, 2,560 at N = 16, 896 at N = 7), and DL-Coupled is
//!   not lagging. Such a batch pays for the epoch it opens.
//!
//! Otherwise entry + 100 ms stands, so a cluster whose backlog cannot pay
//! for an epoch runs the entry-counted schedule message for message. Counting
//! from the last proposal unconditionally added epochs that carry a few
//! hundred bytes each: it almost doubled `control-n32`'s wire bytes (README
//! "The Nagle clock"). The size trigger, the window and the fillers do not
//! read the clock, and HoneyBadger and HB-Link keep entry + 100 ms.

use std::collections::VecDeque;

use dl_crypto::merkle::expected_path_len;
use dl_crypto::Hash;
use dl_vid::Disperser;
use dl_wire::{Block, BlockHeader, Epoch, Tx};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;
use crate::linking::CompletionTracker;
use crate::records::StoreRecord;

use super::{Node, StatEvent, Work};

/// The dispersal window's byte budget, in Nagle batches (`propose_size`) of
/// our own payload awaiting agreement. A constant, not a field: goodput on
/// the variable-bandwidth benchmark rises with it up to 8 and is flat from
/// there to 64.
pub(super) const WINDOW_BUDGET_BATCHES: u64 = 8;

impl<C: BlockCoder> Node<C> {
    /// Time- and pipeline-driven progress: deliveries, epoch advancement,
    /// proposals, wake-up hints.
    pub(super) fn advance(
        &mut self,
        now: u64,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        self.escalate_overdue(now, work, out);
        // Only attempt delivery when a decision or retrieval landed since
        // the last attempt — those are the only inputs that can unblock it.
        if self.pipeline_dirty {
            self.pipeline_dirty = false;
            while self.try_finalize_next(now, work, out) {}
        }
        // Release window backpressure for epochs whose agreement finished:
        // their dispersal is no longer outstanding.
        while let Some(&(e, bytes)) = self.inflight.front() {
            if e > self.agreement_frontier {
                break;
            }
            self.inflight_bytes -= bytes;
            self.inflight.pop_front();
        }
        // Epoch progression for proposals: DispersedLedger moves on when
        // agreement finishes; HoneyBadger waits for full delivery (§6.2).
        // Commit-driven: the cluster moved past us. Otherwise the dispersal
        // window (module docs) may open the epoch early.
        while self.gate() >= self.next_propose_epoch || self.window_admits() {
            // Decided without a block of ours: fill the hole (module docs).
            if self.proposed_up_to < self.next_propose_epoch
                && self.cfg.variant.links()
                && !self.sync_active
            {
                self.disperse(self.next_propose_epoch, Vec::new(), work, out);
            }
            self.next_propose_epoch += 1;
            self.epoch_entered_ms = now;
        }
        self.maybe_propose(now, work, out);
        self.maybe_sync_request(now, out);
        // If a proposal is pending but not yet due, tell the driver when to
        // poll us again.
        if self.proposed_up_to < self.next_propose_epoch {
            if let Some(due) = self.nagle_due().filter(|&due| now < due) {
                out.wake_at(due);
            }
        }
    }

    /// The frontier the propose gate follows: delivery under
    /// retrieve-then-vote, agreement otherwise.
    pub(super) fn gate(&self) -> u64 {
        if self.cfg.variant.retrieve_then_vote() {
            self.delivered_frontier
        } else {
            self.agreement_frontier
        }
    }

    /// DL-Coupled (§4.5): retrieval lags the gate by more than `LAG_LIMIT`
    /// epochs, so proposals are empty until delivery catches up. Anchored
    /// to the *gate*, not the proposed epoch: the window runs ahead of the
    /// gate by design, and counting that depth as lag would keep every
    /// window epoch empty and strand the queue.
    fn lagging(&self) -> bool {
        self.cfg.variant.empty_when_lagging()
            && self.gate() + 1 > self.delivered_frontier + crate::LAG_LIMIT
    }

    /// Whether the dispersal window opens the next epoch past the gate now
    /// (module docs: trigger, byte budget, depth, not lagging).
    fn window_admits(&self) -> bool {
        let depth = self.next_propose_epoch.saturating_sub(self.gate());
        !self.cfg.variant.retrieve_then_vote()
            && self.proposed_up_to >= self.next_propose_epoch
            && self.queue.bytes() as u64 >= depth * self.cfg.propose_size as u64
            && self.inflight_bytes < WINDOW_BUDGET_BATCHES * self.cfg.propose_size as u64
            && self.next_propose_epoch < self.gate() + self.cfg.horizon() / 2
            && !self.lagging()
    }

    /// The Nagle proposal rule (§5): propose when enough bytes queued, or
    /// when the delay elapsed and there is either something to propose or
    /// peer pressure to keep the epoch moving.
    fn maybe_propose(&mut self, now: u64, work: &mut VecDeque<Work>, out: &mut dyn EffectSink) {
        let e = self.next_propose_epoch;
        if self.proposed_up_to >= e {
            return;
        }
        let due_size = self.queue.bytes() >= self.cfg.propose_size;
        if !due_size && self.nagle_due().is_none_or(|due| now < due) {
            return;
        }
        self.last_proposed_ms = now;
        self.propose(e, work, out);
    }

    /// When the Nagle delay of the pending proposal runs out, or `None`
    /// while nothing asks for a proposal: no transaction queued, no peer
    /// traffic in the epoch, no block of ours to rescue. The delay counts
    /// from epoch entry, or from our last proposal when the epoch is live
    /// or our batch pays for it (module docs, "The Nagle clock").
    fn nagle_due(&self) -> Option<u64> {
        let live = self
            .epochs
            .get(self.next_propose_epoch)
            .is_some_and(|st| st.activity)
            || self.link_rescue_pending();
        if !live && self.queue.is_empty() {
            return None;
        }
        let from_last_proposal = !self.cfg.variant.retrieve_then_vote()
            && (live || self.queue.bytes() >= self.dispersal_overhead() && !self.lagging());
        let from = if from_last_proposal {
            // Never later than entry + delay.
            self.last_proposed_ms.min(self.epoch_entered_ms)
        } else {
            self.epoch_entered_ms
        };
        Some(from + crate::PROPOSE_DELAY_MS)
    }

    /// The bytes of roots and Merkle paths one dispersal of ours sends: N
    /// chunks, each with the root and a ⌈log₂ N⌉-hash proof path. A queue
    /// this long pays for the epoch it opens.
    fn dispersal_overhead(&self) -> usize {
        let n = self.cfg.cluster.n;
        n * size_of::<Hash>() * (1 + expected_path_len(n as u32))
    }

    /// Whether one of *our own non-empty* dispersals completed locally,
    /// missed its epoch's commit, and now waits on a later epoch's linking
    /// estimate. Without this pressure an otherwise-idle cluster would
    /// strand the block (and our transactions) forever.
    ///
    /// Pressure is deliberately restricted to our own transaction-bearing
    /// blocks. The earlier rule — any undelivered completion of any peer
    /// counts — had a liveness edge: at extreme uplink asymmetry the
    /// straggler's dispersal misses its epoch's commit *every* epoch, so
    /// each rescue epoch stranded a fresh empty block of the straggler's
    /// and re-armed the pressure, and the cluster never quiesced. Empty
    /// blocks carry nothing worth rescuing, and a peer's non-empty block
    /// is its proposer's job: the proposer's own pressure starts the next
    /// epoch, and its dispersal traffic gives everyone else `activity`
    /// pressure, which is what the `N−f` quorum (including the
    /// two-straggler case needing every honest dispersal) actually relies
    /// on.
    ///
    /// An entry only counts while it is *rescuable*: the linking estimate
    /// is built from contiguous completion prefixes (`V[j]`), so a block
    /// at epoch `t` can never be linked while an earlier dispersal of the
    /// same proposer is missing, and pressure waits for our local
    /// completion prefix to cover it.
    pub(super) fn link_rescue_pending(&self) -> bool {
        if !self.cfg.variant.links() {
            return false;
        }
        // `my_nonempty_proposals` holds only our undelivered proposals, so
        // an entry the completion prefix covers is completed and stranded.
        let completed = self.trackers[self.me.idx()].prefix();
        self.my_nonempty_proposals
            .range(..=self.delivered_frontier.min(completed))
            .next()
            .is_some()
    }

    fn propose(&mut self, epoch: u64, work: &mut VecDeque<Work>, out: &mut dyn EffectSink) {
        // DL-Coupled (§4.5): while retrieval lags, propose an empty block
        // so spam cannot outrun delivery.
        let body: Vec<Tx> = if self.lagging() {
            Vec::new()
        } else {
            self.queue.drain_all()
        };
        self.disperse(epoch, body, work, out);
    }

    /// Disperse our block for `epoch` with `body` as its transactions.
    fn disperse(
        &mut self,
        epoch: u64,
        body: Vec<Tx>,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        self.ensure_epoch(epoch);
        let v_array: Vec<u64> = self
            .trackers
            .iter()
            .map(CompletionTracker::prefix)
            .collect();
        let block = Block {
            header: BlockHeader {
                epoch: Epoch(epoch),
                proposer: self.me,
                v_array,
            },
            body,
        };
        self.stats.blocks_proposed += 1;
        if block.body.is_empty() {
            self.stats.empty_blocks_proposed += 1;
        }
        // WAL: the fact that we proposed for this epoch is durable before
        // the dispersal goes out — a restarted node must never propose a
        // *different* block for the same epoch (self-equivocation).
        let payload = block.payload_bytes() as u64;
        if out.persists() {
            out.persist(StoreRecord::Proposed {
                epoch: Epoch(epoch),
                nonempty: !block.body.is_empty(),
                payload_bytes: payload,
            });
        }
        out.stat(StatEvent::Proposed {
            epoch: Epoch(epoch),
            txs: block.tx_count(),
            payload_bytes: block.payload_bytes(),
            empty: block.body.is_empty(),
        });
        // Window backpressure ledger: this proposal's payload is
        // outstanding until its epoch's agreement finishes.
        self.inflight.push_back((epoch, payload));
        self.inflight_bytes += payload;
        // Without linking our block can miss the commit and be dropped
        // (§4.2): keep the body so it can be re-queued. With linking a
        // completed transaction-bearing dispersal is eventually delivered —
        // remember the epoch so its rescue counts as proposal pressure.
        if !self.cfg.variant.links() {
            self.my_txs.insert(epoch, block.body.clone());
        } else if !block.body.is_empty() {
            self.my_nonempty_proposals.insert(epoch);
        }
        // We never retrieve our own block over the network.
        let packed = self.coder.pack(&block);
        let effects = Disperser::disperse(&self.coder, &packed);
        let st = self.epochs.get_mut(epoch).expect("just ensured");
        st.retrieved[self.me.idx()] = Some(Some(block));
        self.pipeline_dirty = true;
        self.proposed_up_to = epoch;
        self.apply_vid_effects(epoch, self.me.idx(), effects, work, out);
    }
}
