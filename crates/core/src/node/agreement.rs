//! Agreement-side pipeline: VID completions, BA decisions and the ACS rule
//! (paper §4.1–§4.2). Under DL a BA's round-0 `BVal(1)`s are the `Ready`s
//! `Node::step` routes to it, so the vote input at completion sends
//! `Aux(1)` at once. Retrieval triggers fire from here — a BA deciding 1, a
//! completion under retrieve-then-vote, a completion that advances the
//! prefix — and as our own `Ready` goes out; [`super::retrieval`] has the
//! rules.
//!
//! BA instances are admitted per epoch as traffic arrives (lazily, through
//! `ensure_epoch`), bounded by the admission horizon — so when loaded
//! nodes open epochs past the gate (the dispersal window), their BAs run
//! concurrently with epoch `e`'s, and the agreement frontier still only
//! advances over *contiguously* fully-decided epochs.

use std::collections::VecDeque;

use dl_crypto::Hash;
use dl_vid::Retrieved;
use dl_wire::{Epoch, NodeId};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;
use crate::records::StoreRecord;

use super::{Node, Work};

impl<C: BlockCoder> Node<C> {
    /// `VID^epoch_index` completed locally (the `Complete` event of Fig. 3).
    pub(super) fn on_complete(
        &mut self,
        epoch: u64,
        index: usize,
        root: Hash,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        // WAL: the completion (and the root we will serve retrievals
        // under) is durable before the availability vote it justifies.
        if out.persists() {
            out.persist(StoreRecord::Completed {
                epoch: Epoch(epoch),
                index: NodeId(index as u16),
                root,
            });
        }
        let covered = self.trackers[index].prefix();
        self.trackers[index].complete(Epoch(epoch));
        let st = self
            .epochs
            .get_mut(epoch)
            .expect("completion implies state");
        st.completed[index] = true;
        if !self.cfg.variant.retrieve_then_vote() {
            // DispersedLedger: availability alone justifies the vote (§4.2).
            work.push_back(Work::BaInput {
                epoch,
                index,
                value: true,
            });
        } else if st.retrieved[index].is_some() {
            // HoneyBadger semantics with the block already in hand (our own
            // proposal, or a retrieval that finished before local
            // completion).
            work.push_back(Work::BaInput {
                epoch,
                index,
                value: true,
            });
        } else {
            // HoneyBadger semantics: VID acts as reliable broadcast, so
            // retrieval starts immediately and the vote waits for it.
            self.start_retrieval(epoch, index, work, out);
        }
        // Every block the advancing prefix has just covered, this one
        // included: its delivery is now certain, whatever its BA decides.
        self.fetch_certain(index, covered + 1, self.trackers[index].prefix(), work, out);
    }

    /// A retrieval finished (the `Retrieved` event of Fig. 4).
    pub(super) fn on_retrieved(
        &mut self,
        epoch: u64,
        index: usize,
        result: Retrieved<C::Block>,
        work: &mut VecDeque<Work>,
    ) {
        let n = self.cfg.cluster.n;
        let block = match &result {
            Retrieved::Block(raw) => self.coder.unpack(raw).filter(|b| {
                // A block that mis-states its own position or ships a
                // wrong-sized observation array is Byzantine output.
                b.header.epoch == Epoch(epoch)
                    && b.header.proposer == NodeId(index as u16)
                    && b.header.v_array.len() == n
            }),
            Retrieved::BadUploader => None,
        };
        let st = self.epochs.get_mut(epoch).expect("retrieval implies state");
        // The retriever is done: drop it, with its `k` chunk payloads and
        // its copy of the decoded block, rather than keep it to the GC
        // horizon. Karn's rule: only retrievals that never escalated are
        // timed.
        if st.retrievers[index].take().is_some_and(|r| !r.escalated()) {
            self.retrieval_timer
                .observe(self.now - st.retrieval_started_ms[index]);
        }
        st.retrieved[index] = Some(block);
        self.pipeline_dirty = true;
        // Retrieve-then-vote: a block in hand is what draws an idle node
        // into the epoch (module docs, "Liveness and quiescence").
        st.activity |= self.cfg.variant.retrieve_then_vote();
        if self.cfg.variant.retrieve_then_vote() && st.completed[index] {
            work.push_back(Work::BaInput {
                epoch,
                index,
                value: true,
            });
        }
    }

    /// `BA^epoch_index` decided.
    pub(super) fn on_decide(
        &mut self,
        epoch: u64,
        index: usize,
        value: bool,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        let n = self.cfg.cluster.n;
        let f = self.cfg.cluster.f;
        let st = self.epochs.get_mut(epoch).expect("decision implies state");
        if st.decided[index].is_none() {
            st.decided[index] = Some(value);
            st.decided_count += 1;
            if value {
                st.decided_ones += 1;
            }
            if st.all_decided() {
                st.decided_ms = self.now;
            }
            // WAL: the decision is durable before the `Term` broadcast
            // that follows it in this effect stream.
            if out.persists() {
                out.persist(StoreRecord::Decided {
                    epoch: Epoch(epoch),
                    index: NodeId(index as u16),
                    value,
                });
            }
        }
        self.pipeline_dirty = true;
        if value {
            // The block is committed; fetch it if we have not already (a
            // completion the prefix covers started it). This is where
            // DispersedLedger decouples: the retrieval proceeds at our own
            // bandwidth without holding up later epochs.
            self.start_retrieval(epoch, index, work, out);
        }
        // ACS rule: once N−f BAs decided 1, input 0 to the rest (§4.1). The
        // `acs_zeroed` latch makes this fire exactly once per epoch instead
        // of rescanning all N BAs on every late decision.
        let st = self.epochs.get_mut(epoch).expect("state exists");
        if st.decided_ones >= n - f && !st.acs_zeroed {
            st.acs_zeroed = true;
            for j in 0..n {
                if !st.bas[j].has_input() {
                    work.push_back(Work::BaInput {
                        epoch,
                        index: j,
                        value: false,
                    });
                }
            }
        }
        // Advance the agreement frontier over contiguous fully-decided
        // epochs.
        while let Some(next) = self.epochs.get(self.agreement_frontier + 1) {
            if next.all_decided() {
                self.agreement_frontier += 1;
            } else {
                break;
            }
        }
    }
}
