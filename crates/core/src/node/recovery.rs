//! Restart recovery: write-ahead-log replay and peer-attested catch-up
//! sync for the epochs the cluster decided while we were down.

use std::collections::VecDeque;

use dl_wire::{Envelope, Epoch, NodeId, SyncMsg};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;
use crate::records::StoreRecord;

use super::{Node, Work};

impl<C: BlockCoder> Node<C> {
    /// [`crate::Engine::restore`]: rebuild pre-crash state from a replayed
    /// write-ahead log.
    ///
    /// Replay rebuilds exactly what was durably narrated: chunk custody and
    /// completion roots back into the VID servers, BA decisions (as
    /// already-terminated instances that re-amplify `Term` but never
    /// re-vote), our proposal high-water mark with the dispersal window's
    /// in-flight byte ledger (the first `advance` drains the entries the
    /// restored agreement frontier already covers), and the delivered
    /// prefix. The retrieval ledger and timer are *not* narrated: they
    /// restart empty, and catch-up retrievals pick targets like any other.
    /// Everything *derived* — frontiers, the ACS latch, observer mode for
    /// possibly-voted BAs — is recomputed, and catch-up sync is armed so
    /// the first polls broadcast [`SyncMsg::Request`] for the epochs the
    /// cluster decided while we were down. Committed-but-unretrieved blocks
    /// are re-fetched through the ordinary retrieval path.
    pub(super) fn replay(&mut self, records: &[StoreRecord]) {
        if records.is_empty() {
            return;
        }
        let n = self.cfg.cluster.n;
        let f = self.cfg.cluster.f;
        for rec in records {
            match rec {
                StoreRecord::Chunk {
                    epoch,
                    index,
                    root,
                    proof,
                    payload,
                } => {
                    let e = epoch.0;
                    self.ensure_epoch(e);
                    let st = self.epochs.get_mut(e).expect("just ensured");
                    if let Some(server) = st.servers[index.idx()].as_mut() {
                        server.restore(Some((*root, payload.clone(), proof.clone())), None);
                    }
                }
                StoreRecord::Completed { epoch, index, root } => {
                    let e = epoch.0;
                    let j = index.idx();
                    self.ensure_epoch(e);
                    let st = self.epochs.get_mut(e).expect("just ensured");
                    st.completed[j] = true;
                    if let Some(server) = st.servers[j].as_mut() {
                        server.restore(None, Some(*root));
                    }
                    self.trackers[j].complete(*epoch);
                }
                StoreRecord::Proposed {
                    epoch,
                    nonempty,
                    payload_bytes,
                } => {
                    self.proposed_up_to = self.proposed_up_to.max(epoch.0);
                    self.inflight.push_back((epoch.0, *payload_bytes));
                    self.inflight_bytes += payload_bytes;
                    if self.cfg.variant.links() && *nonempty {
                        self.my_nonempty_proposals.insert(epoch.0);
                    }
                }
                StoreRecord::Decided {
                    epoch,
                    index,
                    value,
                } => {
                    let e = epoch.0;
                    let j = index.idx();
                    self.ensure_epoch(e);
                    let st = self.epochs.get_mut(e).expect("just ensured");
                    if st.decided[j].is_none() {
                        st.decided[j] = Some(*value);
                        st.decided_count += 1;
                        if *value {
                            st.decided_ones += 1;
                        }
                        st.bas[j].restore_decided(*value);
                    }
                }
                StoreRecord::Delivered {
                    epoch, proposer, ..
                } => {
                    let j = proposer.idx();
                    self.delivered[j].complete(*epoch);
                    if *proposer == self.me {
                        self.my_nonempty_proposals.remove(&epoch.0);
                    }
                }
                StoreRecord::EpochDelivered { epoch } => {
                    self.delivered_frontier = self.delivered_frontier.max(epoch.0);
                }
            }
        }
        // Recompute the derived cursors the records imply.
        while let Some(next) = self.epochs.get(self.agreement_frontier + 1) {
            if next.all_decided() {
                self.agreement_frontier += 1;
            } else {
                break;
            }
        }
        for st in self.epochs.values_mut() {
            // Epochs whose ACS quorum was reached pre-crash must not
            // re-issue the zero-fill: the undecided remainder are observers
            // (we may have voted before the crash) and a fresh input would
            // collide with a catch-up `restore_decided`.
            st.acs_zeroed = st.decided_ones >= n - f;
        }
        self.ba_observe_below = self.agreement_frontier + self.cfg.horizon() + 1;
        for (_, st) in self.epochs.iter_range_mut(0, self.ba_observe_below) {
            for ba in &mut st.bas {
                ba.observe_only();
            }
        }
        // Re-kick the pipeline: committed blocks that were never retrieved
        // (or an epoch cut down mid-delivery) resume on the first run.
        self.pipeline_dirty = true;
        self.sync_active = true;
        self.gc_epochs();
    }

    /// Whether restart catch-up is still querying peers for missed epochs.
    pub fn sync_active(&self) -> bool {
        self.sync_active
    }

    /// How many consecutive request rounds may adopt nothing before
    /// catch-up concludes it has reached the cluster's live edge. Sized for
    /// real transports: after a restart, peers' writers may need a full
    /// reconnect backoff before their replies can flow again, so a couple
    /// of silent rounds right after boot are expected, not conclusive.
    const SYNC_IDLE_ROUNDS_MAX: u32 = 10;

    /// Periodic catch-up request round (paced by the propose delay). Ends
    /// after [`Self::SYNC_IDLE_ROUNDS_MAX`] consecutive rounds that adopted
    /// nothing: at that point we are at the cluster's live edge and the
    /// ordinary protocol takes over.
    pub(super) fn maybe_sync_request(&mut self, now: u64, out: &mut dyn EffectSink) {
        if !self.sync_active {
            return;
        }
        let due = self.sync_last_request_ms == 0
            || now >= self.sync_last_request_ms + crate::PROPOSE_DELAY_MS;
        if !due {
            out.wake_at(self.sync_last_request_ms + crate::PROPOSE_DELAY_MS);
            return;
        }
        if self.sync_progress {
            self.sync_rounds_idle = 0;
        } else if self.sync_last_request_ms != 0 {
            self.sync_rounds_idle += 1;
            if self.sync_rounds_idle >= Self::SYNC_IDLE_ROUNDS_MAX {
                self.sync_active = false;
                self.sync_tally.clear();
                return;
            }
        }
        self.sync_progress = false;
        self.sync_last_request_ms = now.max(1);
        let from_epoch = self.agreement_frontier + 1;
        for to in 0..self.cfg.cluster.n as u16 {
            let to = NodeId(to);
            if to != self.me {
                self.push_send(to, Envelope::sync(Epoch(from_epoch), SyncMsg::Request), out);
            }
        }
        out.wake_at(now + crate::PROPOSE_DELAY_MS);
    }

    /// A catch-up sync message arrived.
    pub(super) fn on_sync(
        &mut self,
        from: NodeId,
        epoch: u64,
        msg: SyncMsg,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        match msg {
            SyncMsg::Request => {
                // Answer with the outcome of every fully-decided epoch we
                // retain, from the requested epoch up to our agreement
                // frontier, one window at a time.
                if epoch > self.agreement_frontier {
                    return;
                }
                let mut outcomes: Vec<(u64, Vec<bool>)> = Vec::new();
                for (e, st) in self.epochs.iter_range(epoch, self.agreement_frontier) {
                    if outcomes.len() as u64 >= self.cfg.horizon() {
                        break;
                    }
                    if !st.all_decided() {
                        continue;
                    }
                    let committed: Vec<bool> =
                        st.decided.iter().map(|d| *d == Some(true)).collect();
                    outcomes.push((e, committed));
                }
                for (e, committed) in outcomes {
                    self.push_send(
                        from,
                        Envelope::sync(Epoch(e), SyncMsg::Outcome { committed }),
                        out,
                    );
                }
            }
            SyncMsg::Outcome { committed } => {
                // The upper bound is defence in depth: `admit_envelope`
                // already drops envelopes beyond the lookahead window, but
                // a sync reply claiming an outcome for an absurd future
                // epoch must never seed tally state even if the admit path
                // is ever loosened.
                if !self.sync_active
                    || committed.len() != self.cfg.cluster.n
                    || epoch <= self.agreement_frontier
                    || epoch > self.agreement_frontier + self.cfg.horizon()
                {
                    return;
                }
                let tally = self.sync_tally.entry(epoch).or_default();
                if tally.iter().any(|(s, _)| *s == from) {
                    return; // one attestation per peer
                }
                tally.push((from, committed));
                // `f+1` identical vectors contain at least one from a
                // correct node that saw its whole epoch decide — adopt.
                let f = self.cfg.cluster.f;
                let attested: Option<Vec<bool>> = tally
                    .iter()
                    .map(|(_, v)| v)
                    .find(|v| tally.iter().filter(|(_, w)| w == *v).count() >= f + 1)
                    .cloned();
                if let Some(v) = attested {
                    self.adopt_outcome(epoch, &v, work, out);
                }
            }
        }
    }

    /// Adopt a peer-attested epoch outcome: terminate every still-undecided
    /// BA with the cluster's decision and run the ordinary post-decision
    /// bookkeeping (durable `Decided` records, retrieval kick-off, frontier
    /// advancement).
    fn adopt_outcome(
        &mut self,
        epoch: u64,
        committed: &[bool],
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        self.ensure_epoch(epoch);
        let n = self.cfg.cluster.n;
        for (j, &value) in committed.iter().enumerate().take(n) {
            let st = self.epochs.get_mut(epoch).expect("just ensured");
            if st.decided[j].is_some() || st.bas.is_empty() {
                continue;
            }
            st.bas[j].restore_decided(value);
            self.on_decide(epoch, j, value, work, out);
        }
        // Tallies at or below the new frontier are settled.
        let frontier = self.agreement_frontier;
        self.sync_tally.retain(|&e, _| e > frontier);
        self.sync_progress = true;
    }
}
