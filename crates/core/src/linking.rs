//! Inter-node linking (paper §4.3, Fig. 17).
//!
//! Blocks that finish dispersal but miss their epoch's BA commit would be
//! dropped by HoneyBadger-style protocols (up to `f` per epoch, enabling
//! censorship). Inter-node linking recovers them: every proposer embeds its
//! *observation array* `V` (per peer `j`, the largest epoch `t` such that all
//! of `j`'s VIDs up to `t` completed locally), and each epoch's committed
//! observations are combined by taking the **(f+1)-th largest** value per
//! peer — guaranteeing at least one correct node vouches for availability
//! (so retrieval cannot hang) while at most `f` Byzantine exaggerations are
//! discarded.
//!
//! This module contains the two pure pieces: [`CompletionTracker`] (maintains
//! `V[j]` from out-of-order VID completions) and
//! [`compute_linking_estimate`] (the `E` array). The delivery pipeline in
//! [`crate::Node`] applies them.

use dl_wire::Epoch;

/// Tracks, per peer, the largest epoch `t` such that *all* of the peer's
/// VID instances in epochs `1..=t` have completed locally — the value
/// `V[j]` a proposer reports (Fig. 17 phase 1 step 1).
///
/// Completions arrive out of order (a fast peer's epoch-9 dispersal can
/// finish here before its epoch-7 one), so the tracker keeps a prefix
/// counter plus the sparse set of completions beyond it.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompletionTracker {
    prefix: u64,
    beyond: std::collections::BTreeSet<u64>,
}

impl CompletionTracker {
    pub fn new() -> CompletionTracker {
        CompletionTracker::default()
    }

    /// Record that the peer's VID for `epoch` completed.
    pub fn complete(&mut self, epoch: Epoch) {
        let e = epoch.0;
        if e <= self.prefix {
            return; // duplicate
        }
        self.beyond.insert(e);
        while self.beyond.remove(&(self.prefix + 1)) {
            self.prefix += 1;
        }
    }

    /// Current `V[j]` value: the contiguous completion prefix.
    pub fn prefix(&self) -> u64 {
        self.prefix
    }

    /// Whether a specific epoch has completed (prefix or beyond).
    pub fn contains(&self, epoch: Epoch) -> bool {
        epoch.0 <= self.prefix || self.beyond.contains(&epoch.0)
    }
}

/// Combine committed observations into the linking estimate `E` (Fig. 17
/// phase 2 step 3): `E[j]` is the `(f+1)`-th largest value among the
/// committed blocks' `V[j]` entries.
///
/// Requires at least `f+1` observations (an epoch commits `≥ N−f ≥ 2f+1`
/// blocks, so this always holds for committed epochs). Each is the
/// observation array of one committed block, borrowed — the delivery hot
/// path calls this on every attempt, so it must not clone the arrays out of
/// the retrieved blocks; `None` stands for the all-∞ observation an
/// ill-formatted block or a `BAD_UPLOADER` retrieval contributes (paper
/// footnote 5).
pub(crate) fn compute_linking_estimate(
    observations: &[Option<&[u64]>],
    n: usize,
    f: usize,
) -> Vec<u64> {
    assert!(
        observations.len() > f,
        "need more than f observations to compute a safe estimate"
    );
    let mut estimate = vec![0u64; n];
    let mut column: Vec<u64> = Vec::with_capacity(observations.len());
    for (j, e) in estimate.iter_mut().enumerate() {
        column.clear();
        for obs in observations {
            // Short observation arrays (malformed proposer) count as 0 for
            // missing entries — the conservative choice.
            column.push(match obs {
                Some(v) => v.get(j).copied().unwrap_or(0),
                None => u64::MAX,
            });
        }
        // (f+1)-th largest = element at index f in descending order;
        // selection beats a full sort on the hot path.
        let (_, kth, _) = column.select_nth_unstable_by(f, |a, b| b.cmp(a));
        *e = *kth;
    }
    estimate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_contiguous() {
        let mut t = CompletionTracker::new();
        assert_eq!(t.prefix(), 0);
        t.complete(Epoch(1));
        t.complete(Epoch(2));
        assert_eq!(t.prefix(), 2);
    }

    #[test]
    fn tracker_out_of_order() {
        let mut t = CompletionTracker::new();
        t.complete(Epoch(3));
        t.complete(Epoch(1));
        assert_eq!(t.prefix(), 1, "epoch 2 missing");
        assert!(t.contains(Epoch(3)));
        t.complete(Epoch(2));
        assert_eq!(t.prefix(), 3, "prefix must jump over buffered epochs");
    }

    #[test]
    fn tracker_duplicates_ignored() {
        let mut t = CompletionTracker::new();
        t.complete(Epoch(1));
        t.complete(Epoch(1));
        assert_eq!(t.prefix(), 1);
    }

    #[test]
    fn estimate_is_f_plus_one_largest() {
        // N=4, f=1; observations for one column j=0: [5, 3, 9].
        // Descending [9,5,3]; (f+1)-th largest = index 1 = 5.
        let obs: [Option<&[u64]>; 3] = [
            Some(&[5, 0, 0, 0]),
            Some(&[3, 0, 0, 0]),
            Some(&[9, 0, 0, 0]),
        ];
        let e = compute_linking_estimate(&obs, 4, 1);
        assert_eq!(e[0], 5);
    }

    #[test]
    fn byzantine_infinity_discarded() {
        // One all-∞ observation (f=1) cannot raise the estimate above what a
        // correct node reported.
        let obs: [Option<&[u64]>; 3] = [None, Some(&[2, 2, 2, 2]), Some(&[1, 1, 1, 1])];
        let e = compute_linking_estimate(&obs, 4, 1);
        assert_eq!(e, vec![2, 2, 2, 2]);
    }

    #[test]
    fn estimate_lower_bounded_by_some_correct_node() {
        // Lemma D.4's two-sided bound, spot-checked: with f=1 and three
        // observations of which at most one is a lie, E lies between the
        // min and max correct values.
        let correct_a = [4, 7, 0, 2];
        let correct_b = [6, 5, 1, 2];
        let lie = [u64::MAX, 0, u64::MAX, 9];
        let obs: [Option<&[u64]>; 3] = [Some(&correct_a), Some(&correct_b), Some(&lie)];
        let e = compute_linking_estimate(&obs, 4, 1);
        for j in 0..4 {
            let lo = correct_a[j].min(correct_b[j]);
            let hi = correct_a[j].max(correct_b[j]);
            assert!(
                e[j] >= lo && e[j] <= hi,
                "j={j} e={} not in [{lo},{hi}]",
                e[j]
            );
        }
    }

    #[test]
    fn short_observation_counts_as_zero() {
        let obs: [Option<&[u64]>; 3] = [
            Some(&[3]), // malformed: too short
            Some(&[2, 2]),
            Some(&[1, 4]),
        ];
        let e = compute_linking_estimate(&obs, 2, 1);
        assert_eq!(e[0], 2);
        assert_eq!(e[1], 2); // column [0, 2, 4] → 2nd largest = 2
    }

    #[test]
    #[should_panic]
    fn too_few_observations_rejected() {
        compute_linking_estimate(&[Some(&[1])], 1, 1);
    }
}
