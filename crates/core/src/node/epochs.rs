//! Per-epoch protocol state and the epoch ring buffer that indexes it.
//!
//! The node used to keep `BTreeMap<u64, EpochState>`; every message routed
//! through an `O(log n)` tree walk, and the hot simulator loop spends most
//! of its time routing messages. Live epochs are *dense* — between the GC
//! horizon and the admission edge, (almost) every epoch holds state — so
//! [`EpochRing`] stores that span as a ring of `Option<EpochState>` slots
//! with O(1) lookup, plus a sparse `BTreeMap` tail for the unbounded
//! below-horizon epochs that inter-node linking keeps alive (undelivered
//! slots awaiting a late rescue, §4.3). Garbage collection slides the
//! dense base forward ([`EpochRing::compact`]) and survivors migrate to
//! the sparse side.

use std::collections::{BTreeMap, VecDeque};

use dl_ba::Ba;
use dl_crypto::Hash;
use dl_vid::{Coder, Retriever, VidServer};
use dl_wire::{Block, NodeId};

/// Per-epoch protocol state: `N` VID server instances, `N` BA instances,
/// and the retrieval bookkeeping.
pub(crate) struct EpochState<C: Coder> {
    /// One VID server per proposer. A slot is `None` once garbage
    /// collection drops it (the block was delivered and the epoch is far
    /// behind the frontier); un-delivered slots are kept indefinitely so a
    /// late linking rescue can still retrieve the block.
    pub(crate) servers: Vec<Option<VidServer<C>>>,
    pub(crate) bas: Vec<Ba>,
    pub(crate) decided: Vec<Option<bool>>,
    /// How many slots of `decided` are `Some` — kept incrementally so the
    /// per-decision bookkeeping never rescans the vector (at N=64 those
    /// rescans dominated the whole sim event loop).
    pub(crate) decided_count: usize,
    /// How many slots decided 1 (the ACS quorum counter).
    pub(crate) decided_ones: usize,
    /// Whether the ACS zero-fill (input 0 to every un-input BA once `N−f`
    /// ones are in) has already been issued for this epoch.
    pub(crate) acs_zeroed: bool,
    /// Driver-clock time the last of the `N` BAs decided (0 = replayed).
    pub(crate) decided_ms: u64,
    /// Driver-clock time delivery first found every committed block in hand.
    pub(crate) in_hand_ms: Option<u64>,
    /// Local VID completion per proposer.
    pub(crate) completed: Vec<bool>,
    /// Retrievals in flight; a slot empties the moment its retrieval ends.
    pub(crate) retrievers: Vec<Option<Retriever<C>>>,
    /// Driver-clock time each retrieval started (meaningful while the
    /// matching `retrievers` slot is occupied): the sample the escalation
    /// deadline estimator is fed when the retrieval finishes.
    pub(crate) retrieval_started_ms: Vec<u64>,
    /// `Some(None)` = retrieval finished but the proposer was Byzantine.
    pub(crate) retrieved: Vec<Option<Option<Block>>>,
    /// Whether peer traffic for this epoch calls for a block of ours (the
    /// "pressure" input to the proposal rule): any message from a peer, or
    /// under retrieve-then-vote a block retrieved.
    pub(crate) activity: bool,
}

impl<C: Coder> EpochState<C> {
    pub(crate) fn new(
        me: NodeId,
        n: usize,
        f: usize,
        salts: impl Iterator<Item = Hash>,
    ) -> EpochState<C> {
        EpochState {
            servers: (0..n).map(|_| Some(VidServer::new(me, n, f))).collect(),
            bas: salts.map(|s| Ba::new(n, f, s)).collect(),
            decided: vec![None; n],
            decided_count: 0,
            decided_ones: 0,
            acs_zeroed: false,
            decided_ms: 0,
            in_hand_ms: None,
            completed: vec![false; n],
            retrievers: (0..n).map(|_| None).collect(),
            retrieval_started_ms: vec![0; n],
            retrieved: vec![None; n],
            activity: false,
        }
    }

    pub(crate) fn all_decided(&self) -> bool {
        self.decided_count == self.decided.len()
    }
}

/// Epoch-indexed map tuned for the node's access pattern: a dense ring of
/// slots for the live window (`base ..`), where every lookup on the hot
/// message path lands, backed by a sparse tree for the long tail of
/// below-horizon epochs that linking keeps alive. The public surface
/// mirrors the `BTreeMap` it replaced so the automaton code is unchanged;
/// a randomized model test (below) pins the behavioural parity.
pub(crate) struct EpochRing<T> {
    /// Epoch held by `ring[0]`. Slots `base + i` for `i < ring.len()`.
    base: u64,
    ring: VecDeque<Option<T>>,
    /// Occupied slot count in `ring`.
    live: usize,
    /// Sparse survivors below `base` (undelivered linking-rescue slots).
    old: BTreeMap<u64, T>,
}

impl<T> EpochRing<T> {
    pub(crate) fn new() -> EpochRing<T> {
        EpochRing {
            base: 1, // epoch 0 is never used
            ring: VecDeque::new(),
            live: 0,
            old: BTreeMap::new(),
        }
    }

    #[cfg_attr(not(test), expect(dead_code, reason = "exercised by the parity tests"))]
    pub(crate) fn len(&self) -> usize {
        self.live + self.old.len()
    }

    pub(crate) fn contains(&self, epoch: u64) -> bool {
        self.get(epoch).is_some()
    }

    pub(crate) fn get(&self, epoch: u64) -> Option<&T> {
        if epoch >= self.base {
            let idx = (epoch - self.base) as usize;
            self.ring.get(idx).and_then(Option::as_ref)
        } else {
            self.old.get(&epoch)
        }
    }

    pub(crate) fn get_mut(&mut self, epoch: u64) -> Option<&mut T> {
        if epoch >= self.base {
            let idx = (epoch - self.base) as usize;
            self.ring.get_mut(idx).and_then(Option::as_mut)
        } else {
            self.old.get_mut(&epoch)
        }
    }

    pub(crate) fn insert(&mut self, epoch: u64, value: T) {
        if epoch >= self.base {
            let idx = (epoch - self.base) as usize;
            while self.ring.len() <= idx {
                self.ring.push_back(None);
            }
            if self.ring[idx].is_none() {
                self.live += 1;
            }
            self.ring[idx] = Some(value);
        } else {
            self.old.insert(epoch, value);
        }
    }

    pub(crate) fn remove(&mut self, epoch: u64) -> Option<T> {
        if epoch >= self.base {
            let idx = (epoch - self.base) as usize;
            let taken = self.ring.get_mut(idx).and_then(Option::take);
            if taken.is_some() {
                self.live -= 1;
            }
            // Trim empty tail slots so the ring length tracks the live
            // span rather than the high-water mark.
            while matches!(self.ring.back(), Some(None)) {
                self.ring.pop_back();
            }
            taken
        } else {
            self.old.remove(&epoch)
        }
    }

    /// Slide the dense base forward to `new_base`; occupied slots below it
    /// migrate to the sparse tail. Called by epoch GC after it has freed
    /// everything freeable below the new horizon.
    pub(crate) fn compact(&mut self, new_base: u64) {
        while self.base < new_base {
            match self.ring.pop_front() {
                Some(Some(v)) => {
                    self.live -= 1;
                    self.old.insert(self.base, v);
                }
                Some(None) => {}
                None => {
                    self.base = new_base;
                    return;
                }
            }
            self.base += 1;
        }
    }

    /// Occupied epochs in `lo..=hi`, ascending.
    pub(crate) fn iter_range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        let dense = self
            .ring
            .iter()
            .enumerate()
            .map(move |(i, slot)| (base + i as u64, slot))
            .filter_map(|(e, slot)| slot.as_ref().map(|v| (e, v)))
            .filter(move |&(e, _)| e >= lo && e <= hi);
        self.old.range(lo..=hi).map(|(&e, v)| (e, v)).chain(dense)
    }

    /// Mutable iteration over occupied epochs in `lo..hi` (half-open),
    /// ascending.
    pub(crate) fn iter_range_mut(
        &mut self,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = (u64, &mut T)> {
        let EpochRing {
            base, ring, old, ..
        } = self;
        let base = *base;
        let dense = ring
            .iter_mut()
            .enumerate()
            .map(move |(i, slot)| (base + i as u64, slot))
            .filter_map(|(e, slot)| slot.as_mut().map(|v| (e, v)))
            .filter(move |&(e, _)| e >= lo && e < hi);
        old.range_mut(lo..hi).map(|(&e, v)| (e, v)).chain(dense)
    }

    /// Every occupied epoch's value, ascending by epoch.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.old
            .values_mut()
            .chain(self.ring.iter_mut().filter_map(Option::as_mut))
    }
}

#[cfg(test)]
mod tests {
    use super::EpochRing;
    use std::collections::BTreeMap;

    /// Deterministic xorshift64*: the parity test needs arbitrary-looking
    /// operation sequences, not cryptographic randomness, and dl-core
    /// deliberately has no RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The behaviour-parity test: a few thousand random operations applied
    /// to both the ring and a plain `BTreeMap`, checking every observable
    /// (lookups, lengths, range scans) stays identical — including across
    /// `compact` calls, which the model ignores entirely because they must
    /// not change the observable contents.
    #[test]
    fn ring_matches_btreemap_model_under_random_ops() {
        for seed in 1..=8u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut ring: EpochRing<u64> = EpochRing::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut horizon = 1u64;
            for step in 0..4000u64 {
                let e = 1 + rng.next() % 200;
                match rng.next() % 10 {
                    0..=4 => {
                        // Insert-or-overwrite, like `ensure_epoch` + state
                        // mutation through `get_mut`.
                        let v = rng.next();
                        ring.insert(e, v);
                        model.insert(e, v);
                    }
                    5..=6 => {
                        assert_eq!(ring.remove(e), model.remove(&e), "seed {seed} step {step}");
                    }
                    7 => {
                        // GC-style base slide, monotone like the horizon.
                        horizon = horizon.max(1 + rng.next() % 200);
                        ring.compact(horizon);
                    }
                    8 => {
                        if let Some(v) = ring.get_mut(e) {
                            *v = v.wrapping_add(1);
                        }
                        if let Some(v) = model.get_mut(&e) {
                            *v = v.wrapping_add(1);
                        }
                    }
                    _ => {
                        let lo = 1 + rng.next() % 200;
                        let hi = lo + rng.next() % 64;
                        let got: Vec<(u64, u64)> =
                            ring.iter_range(lo, hi).map(|(e, &v)| (e, v)).collect();
                        let want: Vec<(u64, u64)> =
                            model.range(lo..=hi).map(|(&e, &v)| (e, v)).collect();
                        assert_eq!(got, want, "seed {seed} step {step} range {lo}..={hi}");
                    }
                }
                assert_eq!(ring.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(
                    ring.get(e),
                    model.get(&e),
                    "seed {seed} step {step} epoch {e}"
                );
                assert_eq!(ring.contains(e), model.contains_key(&e));
            }
            // Full-content sweep, both through shared and mutable iteration.
            let got: Vec<(u64, u64)> = ring.iter_range(0, u64::MAX).map(|(e, &v)| (e, v)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&e, &v)| (e, v)).collect();
            assert_eq!(got, want, "seed {seed} final sweep");
            let got_mut: Vec<u64> = ring.values_mut().map(|v| *v).collect();
            let want_mut: Vec<u64> = model.values().copied().collect();
            assert_eq!(got_mut, want_mut, "seed {seed} values_mut sweep");
        }
    }

    #[test]
    fn compact_moves_survivors_to_the_sparse_tail() {
        let mut ring: EpochRing<&str> = EpochRing::new();
        ring.insert(1, "one");
        ring.insert(3, "three");
        ring.insert(10, "ten");
        ring.compact(5);
        // Contents are unchanged — only the internal representation moved.
        assert_eq!(ring.get(1), Some(&"one"));
        assert_eq!(ring.get(3), Some(&"three"));
        assert_eq!(ring.get(10), Some(&"ten"));
        assert_eq!(ring.len(), 3);
        // Below-base inserts and removals still work (late linking rescue
        // freeing an old epoch).
        assert_eq!(ring.remove(3), Some("three"));
        assert_eq!(ring.len(), 2);
        ring.insert(2, "two");
        assert_eq!(ring.get(2), Some(&"two"));
        let all: Vec<u64> = ring.iter_range(0, u64::MAX).map(|(e, _)| e).collect();
        assert_eq!(all, vec![1, 2, 10]);
    }

    #[test]
    fn mutable_range_iteration_is_ascending_across_both_halves() {
        let mut ring: EpochRing<u64> = EpochRing::new();
        for e in [2u64, 4, 6, 8, 12] {
            ring.insert(e, e * 10);
        }
        ring.compact(5); // 2 and 4 move to the sparse tail
        let seen: Vec<(u64, u64)> = ring.iter_range_mut(3, 12).map(|(e, v)| (e, *v)).collect();
        assert_eq!(seen, vec![(4, 40), (6, 60), (8, 80)]);
    }
}
