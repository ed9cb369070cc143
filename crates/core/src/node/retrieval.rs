//! Retrieval-side pipeline: when a block is fetched, whom the retrieval
//! asks for chunks, and when it gives up on that choice (paper §4.2
//! retrieval, §6.3 early cancel).
//!
//! A block is fetched at the earliest moment it is known to be needed: it
//! completes, under retrieve-then-vote (HoneyBadger, HB-Link); or — DL and
//! DL-Coupled — its delivery becomes **certain**: `VID(t, j)` completes
//! here and our contiguous completion prefix `V[j]` covers `t`, whether or
//! not `BA(t, j)` has decided. If it decides 1 the block is committed; if
//! 0, AVID-M completes everywhere what completes anywhere, so every correct
//! `V[j]` reaches `t` and a later estimate `E[j]` links it. Either way the
//! fetch spends no byte delivery would not; it only overlaps retrieval with
//! agreement instead of starting it one agreement later. The requests
//! leave **with our own `Ready`** for `(t, j)` when `V[j] ≥ t − 1`: a
//! `Ready` is also round 0's `BVal(1)` (`dl_ba`), so `BA(t, j)` can finish
//! one hop after completion, and requests sent at completion would bring
//! the chunks a hop later. Servers defer a request until their own
//! completion (Fig. 4), so no byte moves sooner than it would have. A
//! proposer with a hole in its dispersals (Byzantine, or back from a
//! restart) is never covered, so blocks nobody will link buy no `k`-fold
//! amplification. A BA deciding 1 fetches what we never saw complete or
//! the prefix does not cover, and delivery's own fetch is the last
//! fallback.
//!
//! Any `k = N − 2f` verified chunks decode a block, so asking all `N`
//! servers makes every peer upload a chunk for every retrieval —
//! `(N − 1)/k` times the bytes that are needed, on the links whose
//! bandwidth the protocol exists to respect. A retrieval here is a
//! **targeted, load-aware pull**:
//!
//! * it asks our own server (a loopback, free) plus the `k − 1 + h` remote
//!   peers that owe us the fewest chunks — the per-peer ledger
//!   `chunk_requests_owed` counts our chunk requests a peer has not yet
//!   answered, so this is join-shortest-queue: a peer whose link to us is
//!   slow or backlogged accumulates debt and is passed over, a fast one
//!   drains its debt and serves more, and the split follows bandwidth as
//!   it varies. Ties break by a rotation keyed on `(epoch, index, me)` so
//!   an idle cluster spreads its requests evenly and deterministically;
//! * decoding forgives the debt of the peers it cancels, so a *dead* peer
//!   would look idle again after every retrieval it failed. A request that
//!   sat out a whole deadline (or was answered with a chunk that proved
//!   the peer faulty) is therefore **defaulted**: it stays on the peer's
//!   account (`chunk_requests_defaulted`) until the peer next returns a
//!   chunk. A dead peer's defaults pile up until it is never chosen; a
//!   peer that was only slow carries one or two, is still chosen whenever
//!   the others are busier, and clears them with its next answer. Without
//!   this, `f` crashed peers at N = 16 made a quarter of all retrievals
//!   wait out a deadline (p50 latency 6.5 s against 0.8 s for
//!   ask-everyone); with it they cost the first deadline and little after;
//! * on decode it cancels only the asked peers that have not answered;
//! * **liveness is kept by escalation**: a retrieval that has not decoded
//!   asks every peer that has not answered (a lost request is sent again),
//!   once — immediately when an asked peer returns a chunk that fails
//!   verification or sits under a second root (`dl_vid::Retriever::handle`),
//!   and otherwise at a deadline taken from this node's own retrieval
//!   times ([`RetrievalTimer`]). After escalation the retrieval is the
//!   paper's ask-everyone retrieval, so every termination argument for that
//!   one carries over. Loss can eat escalation's requests or their answers
//!   as well, so each further deadline re-asks the peers still silent, up
//!   to [`RETRIEVAL_REASKS`] times: a retrieval has at most one timer armed
//!   at a time and a bounded number in all, so an idle cluster still goes
//!   quiescent even when a retrieval's servers never complete;
//! * a retrieval started once our own server has sent `Ready` (or seen the
//!   dispersal complete) knows the committed root and asks for **bare
//!   chunks**: no root, no Merkle path, only the re-encoding check
//!   (`dl_vid` crate docs). If that check fails, the retriever asks every
//!   peer once more with proofs; that fall-back counts as its escalation,
//!   and blames nobody, since any of the `k` bare chunks may be the lie.

use std::collections::VecDeque;

use dl_vid::{Retriever, VidEffect};
use dl_wire::{Epoch, NodeId, VidMsg};

use crate::coder::BlockCoder;
use crate::engine::EffectSink;

use super::{Node, Work};

/// Spare peers asked beyond the `k − 1` a retrieval strictly needs.
///
/// Chosen by measurement on `dl-e2e` (seed 1; the README has the table).
/// `h = 0` waits for the slowest of exactly `k` answers and loses to
/// ask-everyone on goodput (3.33 vs 3.47 MB/s on `vbw-sat-dl`). `h = 1`
/// and `h = 2` both win (4.35 and 4.58 MB/s), but each extra spare is a
/// chunk upload per retrieval: `h = 2` buys 5 % more goodput than `h = 1`
/// — inside the benchmark's 10 % goodput bound — for 13–24 % more bytes
/// on the wire, far outside its 5 % byte bound. The smallest hedge that
/// wins it is.
const RETRIEVAL_HEDGE: usize = 1;

/// Escalation deadline before any retrieval has been timed (RFC 6298's
/// initial RTO).
const RETRIEVAL_RTO_INITIAL_MS: u64 = 1000;

/// Longest run of consecutive timeouts that still doubles the deadline:
/// 2⁴ × the base rides out a 32-fold slowdown, and keeps the last armed
/// wake-up of a finished run seconds, not minutes, away.
const RETRIEVAL_BACKOFF_MAX: u32 = 4;

/// Deadlines after escalation at which a retrieval that has still not
/// decoded re-asks the peers that owe it an answer, one deadline apart.
/// Without them a chaos scenario whose partition swallowed all three
/// answers to a node's escalation left that node's delivery waiting for
/// good, and link-rescue pressure from its own undelivered block kept the
/// cluster proposing empty epochs (`dl-sim`'s chaos seeds 825, 12221).
/// Bounded: servers that never complete (their `Ready`s were lost too)
/// never answer, and a retrieval waiting on them must stop waking us.
const RETRIEVAL_REASKS: u8 = 4;

/// Retransmission-timeout style estimator (RFC 6298) over this node's own
/// retrieval times: smoothed mean plus four mean deviations, Karn's rule
/// and exponential backoff. Integer arithmetic on scaled values, so it is
/// deterministic and drift-free.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct RetrievalTimer {
    /// Smoothed retrieval time × 8; 0 = no sample yet.
    srtt_x8: u64,
    /// Smoothed mean deviation × 4.
    rttvar_x4: u64,
    /// Deadline doublings since the last sample.
    backoff: u32,
    /// When `backoff` last grew.
    backed_off_ms: u64,
}

impl RetrievalTimer {
    /// Feed the duration of a retrieval that finished *without*
    /// escalating. Karn's rule: an escalated retrieval's duration is
    /// mostly the deadline it sat out, and feeding that back would let
    /// the deadline chase itself upward whenever a few peers are dead.
    pub(super) fn observe(&mut self, ms: u64) {
        let ms = ms.max(1);
        self.backoff = 0;
        if self.srtt_x8 == 0 {
            self.srtt_x8 = ms * 8;
            self.rttvar_x4 = ms * 2;
            return;
        }
        let srtt = self.srtt_x8 / 8;
        // rttvar ← ¾·rttvar + ¼·|srtt − r|, then srtt ← ⅞·srtt + ⅛·r.
        self.rttvar_x4 = self.rttvar_x4 - self.rttvar_x4 / 4 + srtt.abs_diff(ms);
        self.srtt_x8 = self.srtt_x8 - srtt + ms;
    }

    /// How long a retrieval may run before it escalates: twice the RTO.
    /// A sender doubles its RTO after the first timeout; a retrieval gets
    /// one escalation, so it starts from the doubled value — escalating
    /// costs `N − k − h` extra chunk uploads, waiting costs latency in the
    /// faulty case only. Measured on `vbw-sat-dl`, where nobody is faulty
    /// and goodput does not care (4.35–4.38 MB/s from 1× to 4×): 1×
    /// escalates 6.6 % of retrievals and moves 11 % more bytes, 2× 0.6 %,
    /// 3× and 4× save under 1.5 % more and only wait longer.
    /// `floor_ms` bounds the deviation term from below: on a quiet
    /// network the measured deviation decays to nothing and a millisecond
    /// of jitter would otherwise count as a timeout.
    pub(super) fn deadline_ms(&self, floor_ms: u64) -> u64 {
        let base = if self.srtt_x8 == 0 {
            RETRIEVAL_RTO_INITIAL_MS.max(floor_ms)
        } else {
            2 * (self.srtt_x8 / 8 + self.rttvar_x4.max(floor_ms))
        };
        base << self.backoff
    }

    /// A retrieval started at `started_ms` sat out its deadline. Since
    /// escalated retrievals are never sampled, a network that turned
    /// slower than the estimate is learnt by backing off until a retrieval
    /// fits the deadline again. Only a retrieval that was *given* the
    /// current deadline and still missed it says that deadline is too
    /// short: the rest of a wave that started before the last doubling
    /// times out within milliseconds of each other and is one event.
    pub(super) fn timed_out(&mut self, started_ms: u64, now: u64) {
        if started_ms >= self.backed_off_ms && self.backoff < RETRIEVAL_BACKOFF_MAX {
            self.backoff += 1;
            self.backed_off_ms = now;
        }
    }
}

/// The remote peers a retrieval of `(epoch, index)` by `me` asks, best
/// first: smallest `debt` (unanswered plus defaulted requests of ours),
/// ties broken by the rotation starting at `(epoch + index + me) mod n`.
pub(super) fn rank_peers(
    me: NodeId,
    epoch: u64,
    index: usize,
    n: usize,
    debt: impl Fn(NodeId) -> u32,
) -> Vec<NodeId> {
    let start = (epoch as usize).wrapping_add(index).wrapping_add(me.idx()) % n;
    let mut peers: Vec<NodeId> = (0..n)
        .map(|i| NodeId(((start + i) % n) as u16))
        .filter(|p| *p != me)
        .collect();
    peers.sort_by_key(|p| debt(*p)); // stable: the rotation survives ties
    peers
}

impl<C: BlockCoder> Node<C> {
    /// Proposer `j`'s epochs in `lo..=hi` whose block we have not delivered,
    /// ascending: the walk behind "which blocks does this estimate name"
    /// and "which has the completion prefix uncovered". It skips the
    /// delivered prefix, so it costs the gaps, not the history.
    pub(super) fn undelivered(&self, j: usize, lo: u64, hi: u64) -> impl Iterator<Item = u64> + '_ {
        let done = &self.delivered[j];
        (lo.max(done.prefix() + 1)..=hi).filter(move |&t| !done.contains(Epoch(t)))
    }

    /// The certainty trigger (module docs): fetch every undelivered block
    /// of proposer `j` in epochs `lo..=hi` — ones our completion prefix
    /// covers, or will once the `Ready` we just sent completes — decided
    /// or not. Idempotent, like `start_retrieval`.
    pub(super) fn fetch_certain(
        &mut self,
        j: usize,
        lo: u64,
        hi: u64,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        if self.cfg.variant.retrieve_then_vote() {
            return; // everything is fetched on completion
        }
        let epochs = &self.epochs;
        let certain: Vec<u64> = self
            .undelivered(j, lo, hi)
            .filter(|&t| epochs.contains(t)) // never resurrect a collected epoch
            .collect();
        for t in certain {
            self.start_retrieval(t, j, work, out);
        }
    }

    /// Start retrieving block `(epoch, index)` unless it is already in hand
    /// or already being fetched.
    pub(super) fn start_retrieval(
        &mut self,
        epoch: u64,
        index: usize,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        self.ensure_epoch(epoch);
        let st = self.epochs.get_mut(epoch).expect("just ensured");
        if st.retrieved[index].is_some() || st.retrievers[index].is_some() {
            return;
        }
        let remote = self.coder.data_chunks() - 1 + RETRIEVAL_HEDGE;
        let targets = std::iter::once(self.me).chain(
            rank_peers(self.me, epoch, index, self.cfg.cluster.n, |p| {
                self.chunk_requests_owed[p.idx()] + self.chunk_requests_defaulted[p.idx()]
            })
            .into_iter()
            .take(remote),
        );
        // Knowing the committed root — we sent `Ready` for it, or saw it
        // complete — lets the retrieval take bare chunks (`dl_vid`).
        let root = st.servers[index].as_ref().and_then(|s| s.committed_root());
        let (retriever, effects) =
            Retriever::<C>::start_targeted(self.cfg.cluster.n, root, targets);
        st.retrievers[index] = Some(retriever);
        st.retrieval_started_ms[index] = self.now;
        self.stats.retrievals_started += 1;
        self.arm_retrieval_deadline(epoch, index, 0, out);
        self.apply_vid_effects(epoch, index, effects, work, out);
    }

    /// Wake at the next deadline of retrieval `(epoch, index)`, which has
    /// re-asked `reasks` times so far.
    fn arm_retrieval_deadline(
        &mut self,
        epoch: u64,
        index: usize,
        reasks: u8,
        out: &mut dyn EffectSink,
    ) {
        let deadline = self.now + self.retrieval_timer.deadline_ms(crate::PROPOSE_DELAY_MS);
        self.retrieval_deadlines
            .insert((deadline, epoch, index as u16, reasks));
        out.wake_at(deadline);
    }

    /// Escalate, or re-ask for, every retrieval whose deadline has passed.
    /// Entries of retrievals that already finished (or were collected)
    /// fall out here.
    pub(super) fn escalate_overdue(
        &mut self,
        now: u64,
        work: &mut VecDeque<Work>,
        out: &mut dyn EffectSink,
    ) {
        while let Some(&(due, epoch, index, reasks)) = self.retrieval_deadlines.first() {
            if due > now {
                break;
            }
            self.retrieval_deadlines.pop_first();
            let index = index as usize;
            let Some(st) = self.epochs.get_mut(epoch) else {
                continue;
            };
            let Some(retriever) = st.retrievers[index].as_mut() else {
                continue;
            };
            for silent in retriever.awaited() {
                self.chunk_requests_defaulted[silent.idx()] += 1;
            }
            let effects = if retriever.escalated() {
                retriever.reask()
            } else {
                let effects = retriever.escalate();
                let started_ms = st.retrieval_started_ms[index];
                if self.note_escalation(&effects) {
                    self.retrieval_timer.timed_out(started_ms, now);
                }
                effects
            };
            if !effects.is_empty() && reasks < RETRIEVAL_REASKS {
                self.arm_retrieval_deadline(epoch, index, reasks + 1, out);
            }
            self.apply_vid_effects(epoch, index, effects, work, out);
        }
    }

    /// Count a retrieval's escalation if `effects` carry one: after the
    /// start, escalation — on a deadline, on evidence, or the fall-back
    /// from bare chunks to proofs — is a retriever's only source of
    /// requests, and it happens at most once.
    pub(super) fn note_escalation(&mut self, effects: &[VidEffect<C::Block>]) -> bool {
        let escalated = effects.iter().any(|e| {
            matches!(
                e,
                VidEffect::Send(_, VidMsg::RequestChunk | VidMsg::RequestProven)
            )
        });
        self.stats.retrievals_escalated += u64::from(escalated);
        escalated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_least_debt_then_rotation() {
        // No debts: pure rotation from (epoch + index + me) mod n, self
        // skipped.
        let ids = |v: Vec<NodeId>| v.into_iter().map(|p| p.0).collect::<Vec<_>>();
        let idle = |_| 0;
        assert_eq!(
            ids(rank_peers(NodeId(2), 1, 0, 7, idle)),
            vec![3, 4, 5, 6, 0, 1]
        );
        assert_eq!(
            ids(rank_peers(NodeId(2), 1, 3, 7, idle)),
            vec![6, 0, 1, 3, 4, 5]
        );
        // Debt outranks rotation: peers 3 and 4 owe us chunks, so they drop
        // to the back, least-indebted first.
        let debts = [0, 0, 0, 5, 2, 0, 0];
        assert_eq!(
            ids(rank_peers(NodeId(2), 1, 0, 7, |p| debts[p.idx()])),
            vec![5, 6, 0, 1, 4, 3]
        );
    }

    #[test]
    fn timer_tracks_mean_and_deviation_and_honours_the_floor() {
        let mut t = RetrievalTimer::default();
        assert_eq!(t.deadline_ms(100), RETRIEVAL_RTO_INITIAL_MS);
        t.observe(40);
        // First sample: srtt = r, rttvar = r/2 → 2·(40 + max(4·20, floor)).
        assert_eq!(t.deadline_ms(10), 240);
        assert_eq!(t.deadline_ms(100), 280);
        // A steady network: deviation decays, the floor takes over.
        for _ in 0..64 {
            t.observe(40);
        }
        assert_eq!(t.deadline_ms(100), 280);
        assert!(t.deadline_ms(1) < 100, "deviation did not decay: {t:?}");
        // A shift to slower retrievals is followed within a few samples.
        for _ in 0..32 {
            t.observe(400);
        }
        assert!((800..=1200).contains(&t.deadline_ms(100)), "{t:?}");
        // Missed deadlines back off exponentially, up to a cap; the next
        // sample takes the estimate back over.
        let base = t.deadline_ms(100);
        t.timed_out(5_000, 6_000);
        assert_eq!(t.deadline_ms(100), 2 * base);
        // The rest of the wave that started before the doubling says
        // nothing about the doubled deadline.
        t.timed_out(5_001, 6_001);
        t.timed_out(5_999, 6_999);
        assert_eq!(t.deadline_ms(100), 2 * base);
        t.timed_out(6_000, 8_000);
        assert_eq!(t.deadline_ms(100), 4 * base);
        for i in 0..20 {
            t.timed_out(10_000 * (i + 1), 10_000 * (i + 1) + 1);
        }
        assert_eq!(t.deadline_ms(100), base << RETRIEVAL_BACKOFF_MAX);
        t.observe(400);
        assert!(t.deadline_ms(100).abs_diff(base) < 10, "{t:?}");
    }
}
