//! Delivery-side pipeline: epoch finalization, inter-node linking (§4.3)
//! and epoch garbage collection. Delivery orders blocks; fetching one here
//! is a fallback (`try_finalize_next`, phase 2), because a fetch at the
//! frontier is serial: a round trip per epoch, after its predecessor.

use std::collections::{BTreeSet, VecDeque};

use dl_wire::{Epoch, NodeId};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;
use crate::linking::compute_linking_estimate;
use crate::records::StoreRecord;

use super::{DeliveredBlock, Node, StatEvent, Work};

impl<C: BlockCoder> Node<C> {
    /// Try to deliver epoch `delivered_frontier + 1`. Returns true if the
    /// frontier advanced (so the caller loops).
    pub(super) fn try_finalize_next(
        &mut self,
        now: u64,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) -> bool {
        let n = self.cfg.cluster.n;
        let f = self.cfg.cluster.f;
        let epoch = self.delivered_frontier + 1;
        let Some(st) = self.epochs.get(epoch) else {
            return false;
        };
        if !st.all_decided() {
            return false;
        }
        let committed: Vec<usize> = (0..n).filter(|&j| st.decided[j] == Some(true)).collect();
        // Phase 1: all committed blocks must be retrieved (they carry the
        // observation arrays linking needs).
        let missing: Vec<usize> = committed
            .iter()
            .copied()
            .filter(|&j| st.retrieved[j].is_none())
            .collect();
        if !missing.is_empty() {
            for j in missing {
                self.start_retrieval(epoch, j, work, out);
            }
            return false;
        }
        // Phase 2: the linking estimate E (Fig. 17) names older blocks that
        // must be delivered alongside this epoch.
        let st = self.epochs.get_mut(epoch).expect("state exists");
        let (decided_ms, in_hand_ms) = (st.decided_ms, *st.in_hand_ms.get_or_insert(now));
        let linked_up_to: Vec<u64> = if self.cfg.variant.links() && committed.len() > f {
            // Borrow the observation arrays straight out of the retrieved
            // blocks — this runs on every delivery attempt, and cloning N
            // length-N arrays here was quadratic per attempt.
            let observations: Vec<Option<&[u64]>> = committed
                .iter()
                .map(|&j| match &st.retrieved[j] {
                    Some(Some(b)) => Some(b.header.v_array.as_slice()),
                    // Byzantine blocks count as the all-∞ observation
                    // (paper footnote 5); the f+1-th-largest rule caps it.
                    _ => None,
                })
                .collect();
            // The `.min(epoch)` cap is what keeps linking sound under the
            // dispersal window: with pipelining, observation arrays
            // routinely vouch for dispersals of epochs *ahead* of this
            // one, and those must wait for their own epoch's delivery
            // pass, never be pulled into this batch.
            compute_linking_estimate(&observations, n, f)
                .into_iter()
                .map(|e| e.min(epoch))
                .collect()
        } else {
            vec![0; n]
        };
        let mut to_deliver: BTreeSet<(u64, u16)> = BTreeSet::new();
        for (j, &up_to) in linked_up_to.iter().enumerate() {
            to_deliver.extend(self.undelivered(j, 1, up_to).map(|t| (t, j as u16)));
        }
        for &j in &committed {
            if !self.delivered[j].contains(Epoch(epoch)) {
                to_deliver.insert((epoch, j as u16));
            }
        }
        // Everything in the delivery set must be retrieved. The certainty
        // trigger fetched what we saw complete; the rest (catch-up, loss) is
        // fetched here, counted, and waited for: the estimate guarantees a
        // correct node completed each dispersal, so the retrievals terminate.
        let mut waiting = false;
        let started = self.stats.retrievals_started;
        for &(t, j) in &to_deliver {
            self.ensure_epoch(t);
            if self.epochs.get(t).expect("just ensured").retrieved[j as usize].is_none() {
                self.start_retrieval(t, j as usize, work, out);
                waiting = true;
            }
        }
        self.stats.linked_fetches_at_frontier += self.stats.retrievals_started - started;
        if waiting {
            return false;
        }
        // Deliver in deterministic (epoch, proposer) order — identical at
        // every correct node, which is what makes this a total order.
        for &(t, j) in &to_deliver {
            let block = self.epochs.get(t).expect("state exists").retrieved[j as usize]
                .clone()
                .expect("checked above");
            self.delivered[j as usize].complete(Epoch(t));
            if j == self.me.0 {
                self.my_nonempty_proposals.remove(&t);
            }
            // A late linking rescue below the GC horizon: release the slot
            // the bulk pass left behind (it only frees delivered slots).
            if t < self.gc_horizon {
                let st = self.epochs.get_mut(t).expect("state exists");
                st.servers[j as usize] = None;
                st.retrievers[j as usize] = None;
                st.retrieved[j as usize] = None;
            }
            let via_link = t != epoch || !committed.contains(&(j as usize));
            self.stats.blocks_delivered += 1;
            if via_link {
                self.stats.linked_deliveries += 1;
            }
            match &block {
                Some(b) => self.stats.txs_delivered += b.tx_count() as u64,
                None => self.stats.malformed_blocks_delivered += 1,
            }
            // WAL: the delivery is durable before the block reaches the
            // application — replaying the log reproduces the exact
            // delivered prefix.
            if out.persists() {
                out.persist(StoreRecord::Delivered {
                    epoch: Epoch(t),
                    proposer: NodeId(j),
                    via_link,
                    block: block.clone(),
                });
            }
            out.deliver(DeliveredBlock {
                epoch: Epoch(t),
                proposer: NodeId(j),
                block,
                via_link,
                delivered_ms: now,
            });
        }
        // §4.2: without linking, a dropped proposal's transactions go back
        // to the front of the queue.
        if let Some(txs) = self.my_txs.remove(&epoch) {
            let dropped =
                self.epochs.get(epoch).expect("state exists").decided[self.me.idx()] == Some(false);
            if dropped && !self.cfg.variant.links() {
                self.stats.txs_requeued += txs.len() as u64;
                self.queue.push_front_batch(txs);
            }
        }
        // The epoch boundary: the record the default fsync policy syncs on.
        if out.persists() {
            out.persist(StoreRecord::EpochDelivered {
                epoch: Epoch(epoch),
            });
        }
        out.stat(StatEvent::EpochDelivered {
            epoch: Epoch(epoch),
            blocks: to_deliver.len(),
            decided_ms,
            in_hand_ms,
        });
        self.stats.epochs_delivered += 1;
        self.delivered_frontier = epoch;
        self.gc_epochs();
        true
    }

    /// Release the heavyweight state of epochs far behind the delivered
    /// frontier. We keep full history for [`crate::NodeConfig::horizon`]
    /// epochs so lagging peers can catch up (pipelined epochs sit above
    /// the delivered frontier and are never candidates); beyond that,
    /// *delivered* slots drop their VID server (chunk memory), retriever
    /// and block body, and the epoch's BA instances (long halted) are
    /// dropped wholesale.
    ///
    /// Un-delivered slots are deliberately kept alive — server included —
    /// because a later epoch's linking estimate may still name them and
    /// every node must be able to answer the rescue retrieval; dropping
    /// them would deadlock the delivery frontier cluster-wide. Their cost
    /// is bounded by the attacker's own dispersal bandwidth. (A production
    /// deployment would spill chunks to disk instead of refusing ancient
    /// requests; peers lagging further than the window need a state-sync
    /// mechanism.)
    pub(super) fn gc_epochs(&mut self) {
        let new_horizon = self.delivered_frontier.saturating_sub(self.cfg.horizon());
        if new_horizon <= self.gc_horizon {
            return;
        }
        let linking = self.cfg.variant.links();
        let Node {
            epochs,
            delivered,
            gc_horizon,
            chunk_requests_owed,
            ..
        } = self;
        let mut empty = Vec::new();
        for (t, st) in epochs.iter_range_mut(*gc_horizon, new_horizon) {
            st.bas = Vec::new();
            for (j, delivered_by) in delivered.iter().enumerate() {
                // Delivered bodies are never read again (the delivery
                // dedup in `try_finalize_next` skips them). Without
                // linking, undelivered slots can never be claimed later
                // either, so everything below the horizon is freed.
                if !linking || delivered_by.contains(Epoch(t)) {
                    st.servers[j] = None;
                    // A retrieval abandoned mid-flight (an uncommitted
                    // block under HoneyBadger's retrieve-then-vote) must
                    // not leave its peers in our debt forever.
                    if let Some(r) = st.retrievers[j].take() {
                        for p in r.awaited() {
                            chunk_requests_owed[p.idx()] -= 1;
                        }
                    }
                    st.retrieved[j] = None;
                }
            }
            if st.servers.iter().all(Option::is_none) {
                empty.push(t);
            }
        }
        // Fully-collected epochs leave the map entirely; `handle` refuses
        // envelopes below the horizon for absent epochs, so a Byzantine
        // peer cannot resurrect them.
        for t in empty {
            epochs.remove(t);
        }
        // Slide the ring's dense base up to the horizon: the sparse tail
        // keeps only the undelivered linking-rescue survivors.
        epochs.compact(new_horizon);
        self.gc_horizon = new_horizon;
    }
}
