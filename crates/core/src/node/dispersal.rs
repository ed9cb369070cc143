//! Proposal-side pipeline: the propose gate, the epoch dispersal window,
//! and the Nagle proposal rule (paper §5).
//!
//! ## The epoch dispersal window
//!
//! The paper's engine advances the propose frontier one epoch at a time:
//! under [`ProposeGate::DispersalDone`], dispersal of `e + 1` waits for
//! every BA of `e` to output, leaving the uplink idle during BA rounds.
//! With `NodeConfig::dispersal_window = k > 1`, a node that has already
//! dispersed its block for the current epoch may open epochs
//! `gate + 1 .. gate + k` while agreement is still in flight — pipelining
//! across consensus instances (Narwhal/Dispel style), paced by the same
//! Nagle thresholds as ordinary proposals.
//!
//! Flow control keeps a fast proposer from flooding slow nodes:
//!
//! * **Epoch cap** — at most `k` undecided epochs may hold our dispersal;
//!   the window is anchored to the gate frontier and only slides when
//!   commits advance it (commit-driven advancement).
//! * **Byte cap** — the payload of our own not-yet-decided proposals must
//!   stay under `NodeConfig::window_bytes_max`; the ledger drains as the
//!   agreement frontier moves.
//! * **Spam defence** — DL-Coupled's `empty_when_lagging` rule applies to
//!   every epoch in the window: while the *gate* has outrun retrieval by
//!   more than `lag_limit`, window epochs degrade to empty blocks. (The
//!   test is anchored to the gate, not the proposed epoch — the window
//!   intentionally runs ahead of the gate, and counting that depth as lag
//!   would propose empty forever and strand the queue.)
//!
//! With `k = 1` the pipelined branch of the advance rule can never fire
//! (it requires `next < gate + 1`, which the commit-driven branch already
//! covers), so the schedule is bit-identical to the paper's.

use std::collections::VecDeque;

use dl_vid::Disperser;
use dl_wire::{Block, BlockHeader, Epoch, Tx};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;
use crate::linking::CompletionTracker;
use crate::records::StoreRecord;
use crate::variant::ProposeGate;

use super::{Node, StatEvent, Work};

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
        // The dispersal window adds a second, flow-controlled way forward.
        loop {
            let gate = match self.cfg.flags.propose_gate {
                ProposeGate::DispersalDone => self.agreement_frontier,
                ProposeGate::Delivered => self.delivered_frontier,
            };
            if gate >= self.next_propose_epoch {
                // Commit-driven: the cluster moved past us.
                self.next_propose_epoch += 1;
                self.epoch_entered_ms = now;
                continue;
            }
            // Pipelined entry (only reachable with dispersal_window > 1):
            // our dispersal for the current epoch is out, the window has
            // room past the gate, and the byte ledger is under its cap.
            if self.proposed_up_to >= self.next_propose_epoch
                && self.next_propose_epoch < gate + self.cfg.dispersal_window
                && self.inflight_bytes < self.cfg.window_bytes_max
            {
                self.next_propose_epoch += 1;
                self.epoch_entered_ms = now;
                continue;
            }
            break;
        }
        self.maybe_propose(now, work, out);
        self.maybe_sync_request(now, out);
        // If a proposal is pending but not yet due, tell the driver when to
        // poll us again.
        if self.proposed_up_to < self.next_propose_epoch {
            let pressure = self
                .epochs
                .get(self.next_propose_epoch)
                .is_some_and(|st| st.activity);
            if pressure || !self.queue.is_empty() || self.link_rescue_pending() {
                let due = self.epoch_entered_ms + self.cfg.propose_delay_ms;
                if now < due {
                    out.wake_at(due);
                }
            }
        }
    }

    /// The Nagle proposal rule (§5): propose when enough bytes queued, or
    /// when the delay elapsed and there is either something to propose or
    /// peer pressure to keep the epoch moving.
    fn maybe_propose(&mut self, now: u64, work: &mut VecDeque<Work>, out: &mut dyn EffectSink) {
        let e = self.next_propose_epoch;
        if self.proposed_up_to >= e {
            return;
        }
        let pressure = self.epochs.get(e).is_some_and(|st| st.activity);
        let due_size = self.queue.bytes() >= self.cfg.propose_size;
        let due_time = (pressure || !self.queue.is_empty() || self.link_rescue_pending())
            && now >= self.epoch_entered_ms + self.cfg.propose_delay_ms;
        if !due_size && !due_time {
            return;
        }
        self.propose(e, work, out);
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
        if !self.cfg.flags.linking {
            return false;
        }
        let me = self.me.0;
        // `my_nonempty_proposals` holds only stranded-or-in-flight own
        // proposals, so this range scan touches a handful of entries, not
        // the whole completion backlog.
        self.my_nonempty_proposals
            .range(..=self.delivered_frontier)
            .any(|&t| {
                self.undelivered_completions.contains(&(t, me))
                    && t <= self.trackers[me as usize].prefix()
            })
    }

    fn propose(&mut self, epoch: u64, work: &mut VecDeque<Work>, out: &mut dyn EffectSink) {
        self.ensure_epoch(epoch);
        // DL-Coupled (§4.5): while retrieval lags more than `lag_limit`
        // epochs behind, propose an empty block so spam cannot outrun
        // delivery. The test is anchored to the *gate* (the epoch the
        // strictly gated schedule would propose next — identical to
        // `epoch` at k = 1), not the pipelined epoch: the window runs up
        // to k ahead of the gate by design, and counting that depth as
        // "lag" makes every window epoch permanently empty — the queued
        // transactions then never drain, and their proposal pressure
        // spins empty epochs forever. Cluster-outran-our-retrieval is
        // what the rule is for; the window's own outstanding data is the
        // byte cap's job.
        let gate = match self.cfg.flags.propose_gate {
            ProposeGate::DispersalDone => self.agreement_frontier,
            ProposeGate::Delivered => self.delivered_frontier,
        };
        let lagging = self.cfg.flags.empty_when_lagging
            && gate + 1 > self.delivered_frontier + self.cfg.lag_limit;
        let body: Vec<Tx> = if lagging {
            Vec::new()
        } else {
            self.queue.drain_all()
        };
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
        if !self.cfg.flags.linking {
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
