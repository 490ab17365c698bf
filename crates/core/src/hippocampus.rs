//! The hippocampal episodic store (§3.2, §5.4).
//!
//! The hippocampus in CLS theory "quickly memorizes the information it
//! encounters ... in a compressed format" and later feeds replay. The
//! paper's experiments assume unlimited storage; §5.4 lists the
//! practical policies a real implementation must choose between, all
//! of which are implemented here:
//!
//! * [`CapacityPolicy::Unbounded`] — the paper's experimental setup;
//! * [`CapacityPolicy::Ring`] — a fixed-size buffer, oldest evicted;
//! * [`CapacityPolicy::ConfidenceFiltered`] — skip well-learned
//!   examples on entry, evict the highest-confidence first;
//! * [`CapacityPolicy::Consolidating`] — free episodes that have been
//!   replayed enough ("already consolidated due to replay, thus not
//!   needed further");
//! * [`CapacityPolicy::Averaging`] — merge similar episodes into
//!   weighted prototypes ("average similar examples, producing single
//!   representative cases").
//!
//! A bounded policy with `capacity: 0` stores nothing; it still counts
//! every offered episode.

use std::collections::VecDeque;

use rand::Rng;

/// One stored training episode: the encoded input pattern and its
/// observed next-token target.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The raw token history whose encoding is `pattern` (kept so
    /// generative replay can re-roll sequences and so episodes can be
    /// re-encoded under a different encoder).
    pub history: Vec<usize>,
    /// Active pattern bits (sorted).
    pub pattern: Vec<u32>,
    /// The network's recurrent-state bits when the episode was
    /// recorded. Replay reinstates this context — replaying a pattern
    /// under the *current* context would potentiate its target on the
    /// wrong winner set and erode the true association.
    pub recurrent: Vec<u32>,
    /// Target class.
    pub target: usize,
    /// Model confidence on this example when it was stored.
    pub confidence: f32,
    /// Step counter at storage time.
    pub stored_at: u64,
    /// Phase tag from the phase detector (0 when untracked).
    pub phase: u64,
    /// Times this episode has been replayed.
    pub replays: u32,
    /// Merge weight (number of raw episodes behind a prototype).
    pub weight: u32,
}

/// Storage policy for the episodic buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityPolicy {
    /// Store everything (the paper's idealized setup).
    Unbounded,
    /// Fixed capacity, oldest evicted first. "Oldest" is the earliest
    /// inserted; ties between episodes of equal `stored_at` go to the
    /// lowest slot. While `stored_at` never decreases (every caller in
    /// this workspace stores a step counter) that is exactly the
    /// minimum-`stored_at`, lowest-slot episode.
    Ring {
        /// Maximum episodes.
        capacity: usize,
    },
    /// Skip examples the model already predicts with confidence above
    /// `skip_above`; when full, evict the highest-confidence episode.
    ConfidenceFiltered {
        /// Maximum episodes.
        capacity: usize,
        /// Entry filter threshold.
        skip_above: f32,
    },
    /// Drop episodes once replayed `max_replays` times; when full,
    /// evict the most-replayed episode.
    Consolidating {
        /// Maximum episodes.
        capacity: usize,
        /// Replays after which an episode is considered consolidated.
        max_replays: u32,
    },
    /// Merge a new episode into an existing same-target prototype when
    /// their pattern overlap (Jaccard) reaches `merge_overlap`; when
    /// full, evict the lightest prototype.
    Averaging {
        /// Maximum prototypes.
        capacity: usize,
        /// Jaccard similarity required to merge.
        merge_overlap: f64,
    },
}

impl CapacityPolicy {
    /// The episode bound, `None` for [`CapacityPolicy::Unbounded`].
    fn capacity(&self) -> Option<usize> {
        match *self {
            CapacityPolicy::Unbounded => None,
            CapacityPolicy::Ring { capacity }
            | CapacityPolicy::ConfidenceFiltered { capacity, .. }
            | CapacityPolicy::Consolidating { capacity, .. }
            | CapacityPolicy::Averaging { capacity, .. } => Some(capacity),
        }
    }
}

/// The episodic store.
#[derive(Debug, Clone)]
pub struct Hippocampus {
    policy: CapacityPolicy,
    episodes: Vec<Episode>,
    /// Raw episodes offered (including skipped/merged).
    offered: u64,
    /// Episodes rejected by the confidence filter.
    skipped: u64,
    /// Episodes merged into prototypes.
    merged: u64,
    /// [`CapacityPolicy::Ring`] only: the slots of `episodes` in
    /// insertion order, oldest at the front. The newest episode is
    /// always in the last slot, so it is the back entry.
    ring: VecDeque<u32>,
    /// Replay-sampling workspaces, reused across calls.
    picks: Vec<usize>,
    swaps: Vec<(usize, usize)>,
    candidates: Vec<usize>,
}

impl Hippocampus {
    /// Creates an empty store under `policy`.
    pub fn new(policy: CapacityPolicy) -> Self {
        Self {
            policy,
            episodes: Vec::new(),
            offered: 0,
            skipped: 0,
            merged: 0,
            ring: VecDeque::new(),
            picks: Vec::new(),
            swaps: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// The storage policy.
    pub fn policy(&self) -> CapacityPolicy {
        self.policy
    }

    /// Stored episode count.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Raw episodes offered via [`store`](Self::store).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Episodes rejected by the confidence filter.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Episodes merged into prototypes.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Read access to the stored episodes.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Offers an episode to the store; the policy decides whether and
    /// how it is kept.
    #[allow(clippy::too_many_arguments)]
    pub fn store(
        &mut self,
        history: Vec<usize>,
        pattern: Vec<u32>,
        recurrent: Vec<u32>,
        target: usize,
        confidence: f32,
        now: u64,
        phase: u64,
    ) {
        self.offered += 1;
        if self.policy.capacity() == Some(0) {
            return;
        }
        let episode = Episode {
            history,
            pattern,
            recurrent,
            target,
            confidence,
            stored_at: now,
            phase,
            replays: 0,
            weight: 1,
        };
        match self.policy {
            CapacityPolicy::Unbounded => self.episodes.push(episode),
            CapacityPolicy::Ring { capacity } => {
                if self.episodes.len() >= capacity {
                    self.evict_oldest();
                }
                self.ring.push_back(self.episodes.len() as u32);
                self.episodes.push(episode);
            }
            CapacityPolicy::ConfidenceFiltered {
                capacity,
                skip_above,
            } => {
                if episode.confidence > skip_above {
                    self.skipped += 1;
                    return;
                }
                if self.episodes.len() >= capacity {
                    let worst = self
                        .episodes
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.confidence.total_cmp(&b.1.confidence))
                        .map(|(i, _)| i);
                    if let Some(worst) = worst {
                        self.episodes.swap_remove(worst);
                    }
                }
                self.episodes.push(episode);
            }
            CapacityPolicy::Consolidating { capacity, .. } => {
                if self.episodes.len() >= capacity {
                    let most_replayed = self
                        .episodes
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, e)| e.replays)
                        .map(|(i, _)| i);
                    if let Some(most_replayed) = most_replayed {
                        self.episodes.swap_remove(most_replayed);
                    }
                }
                self.episodes.push(episode);
            }
            CapacityPolicy::Averaging {
                capacity,
                merge_overlap,
            } => {
                if let Some(i) = self.find_mergeable(&episode, merge_overlap) {
                    self.episodes[i].weight += 1;
                    // Refresh recency/confidence toward the new sight.
                    self.episodes[i].stored_at = episode.stored_at;
                    self.episodes[i].confidence =
                        0.5 * (self.episodes[i].confidence + episode.confidence);
                    self.merged += 1;
                    return;
                }
                if self.episodes.len() >= capacity {
                    let lightest = self
                        .episodes
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.weight)
                        .map(|(i, _)| i);
                    if let Some(lightest) = lightest {
                        self.episodes.swap_remove(lightest);
                    }
                }
                self.episodes.push(episode);
            }
        }
    }

    /// Samples up to `k` episode indices uniformly without replacement.
    pub fn sample(&self, k: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_into(k, None, rng, &mut Vec::new(), &mut Vec::new(), &mut out);
        out
    }

    /// Samples up to `k` episodes preferring phases other than
    /// `current_phase` (replay old contexts while learning a new one).
    /// Falls back to uniform sampling when no other phase is stored.
    pub fn sample_other_phases(
        &self,
        k: usize,
        current_phase: u64,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_into(
            k,
            Some(current_phase),
            rng,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Samples like [`sample_other_phases`](Self::sample_other_phases)
    /// (with `Some(phase)`) or [`sample`](Self::sample) (with `None`)
    /// into `out`; `swaps` and `candidates` are workspace.
    fn sample_into(
        &self,
        k: usize,
        other_than: Option<u64>,
        rng: &mut impl Rng,
        swaps: &mut Vec<(usize, usize)>,
        candidates: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) {
        candidates.clear();
        if let Some(phase) = other_than {
            candidates.extend(
                self.episodes
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.phase != phase)
                    .map(|(i, _)| i),
            );
        }
        if candidates.is_empty() {
            sample_virtual(self.episodes.len(), k, rng, swaps, out);
        } else {
            sample_virtual(candidates.len(), k, rng, swaps, out);
            out.iter_mut().for_each(|p| *p = candidates[*p]);
        }
    }

    /// Samples up to `k` episodes (preferring phases other than
    /// `other_than`, when given) and hands each to `visit` by
    /// reference, in descending slot order, marking it replayed right
    /// after (see [`mark_replayed`](Self::mark_replayed)). Descending
    /// order keeps a consolidation's `swap_remove` from moving an
    /// episode that is still to be visited.
    pub fn replay_sample(
        &mut self,
        k: usize,
        other_than: Option<u64>,
        rng: &mut impl Rng,
        mut visit: impl FnMut(&Episode),
    ) {
        let mut picks = std::mem::take(&mut self.picks);
        let mut swaps = std::mem::take(&mut self.swaps);
        let mut candidates = std::mem::take(&mut self.candidates);
        self.sample_into(k, other_than, rng, &mut swaps, &mut candidates, &mut picks);
        picks.sort_unstable_by(|a, b| b.cmp(a));
        for &idx in &picks {
            visit(&self.episodes[idx]);
            self.mark_replayed(idx);
        }
        self.picks = picks;
        self.swaps = swaps;
        self.candidates = candidates;
    }

    /// Marks an episode as replayed once; under
    /// [`CapacityPolicy::Consolidating`] the episode is freed when it
    /// reaches the replay budget. Returns whether the episode was
    /// freed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn mark_replayed(&mut self, index: usize) -> bool {
        let e = &mut self.episodes[index];
        e.replays += 1;
        if let CapacityPolicy::Consolidating { max_replays, .. } = self.policy {
            if e.replays >= max_replays {
                self.episodes.swap_remove(index);
                return true;
            }
        }
        false
    }

    /// Clears all stored episodes.
    pub fn clear(&mut self) {
        self.episodes.clear();
        self.ring.clear();
    }

    /// Ring eviction in O(1) while `stored_at` strictly increases: the
    /// oldest episode is the ring's front. Ties at the front's
    /// `stored_at` go to the lowest slot, as the old minimum-`stored_at`
    /// scan broke them, which costs a walk over the tied run. The
    /// `swap_remove` layout is kept (replay sampling indexes into it):
    /// the last slot, which holds the newest episode and so is the
    /// ring's back entry, moves into the freed slot.
    fn evict_oldest(&mut self) {
        let Some(&front) = self.ring.front() else {
            return;
        };
        let oldest_at = self.episodes[front as usize].stored_at;
        let episodes = &self.episodes;
        let Some((pos, slot)) = self
            .ring
            .iter()
            .enumerate()
            .take_while(|&(_, &s)| episodes[s as usize].stored_at == oldest_at)
            .min_by_key(|&(_, &s)| s)
            .map(|(pos, &s)| (pos, s))
        else {
            return;
        };
        let last = (self.episodes.len() - 1) as u32;
        debug_assert_eq!(
            self.ring.back(),
            Some(&last),
            "newest sits in the last slot"
        );
        self.ring.remove(pos);
        self.episodes.swap_remove(slot as usize);
        if slot != last {
            if let Some(back) = self.ring.back_mut() {
                *back = slot;
            }
        }
    }

    fn find_mergeable(&self, episode: &Episode, threshold: f64) -> Option<usize> {
        self.episodes.iter().position(|e| {
            e.target == episode.target && jaccard(&e.pattern, &episode.pattern) >= threshold
        })
    }
}

/// Partial Fisher–Yates over the virtual identity array `0..n`: the
/// first `min(k, n)` entries of the shuffle, in O(k) time and space.
///
/// Only the entries a swap has moved are stored (`swaps`, position →
/// value); every other position holds its own index. The RNG draws
/// (`gen_range(i..n)` for `i < k`, none when `k >= n`) and the result
/// are those of shuffling a materialized `(0..n).collect()` array.
fn sample_virtual(
    n: usize,
    k: usize,
    rng: &mut impl Rng,
    swaps: &mut Vec<(usize, usize)>,
    out: &mut Vec<usize>,
) {
    out.clear();
    if n == 0 || k == 0 {
        return;
    }
    if k >= n {
        out.extend(0..n);
        return;
    }
    swaps.clear();
    let value_at = |swaps: &[(usize, usize)], p: usize| {
        swaps.iter().find(|&&(q, _)| q == p).map_or(p, |&(_, v)| v)
    };
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let (vi, vj) = (value_at(swaps, i), value_at(swaps, j));
        // Position i is final; later draws start past it.
        out.push(vj);
        match swaps.iter_mut().find(|(q, _)| *q == j) {
            Some(entry) => entry.1 = vi,
            None => swaps.push((j, vi)),
        }
    }
}

/// Jaccard similarity of two sorted bit-index lists.
fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ep(h: &mut Hippocampus, bits: &[u32], target: usize, conf: f32, now: u64) {
        h.store(vec![target], bits.to_vec(), vec![], target, conf, now, 0);
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
        for i in 0..1000u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
        }
        assert_eq!(h.len(), 1000);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 3 });
        for i in 0..5u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
        }
        assert_eq!(h.len(), 3);
        let stored: Vec<u64> = h.episodes().iter().map(|e| e.stored_at).collect();
        assert!(!stored.contains(&0) && !stored.contains(&1));
    }

    #[test]
    fn confidence_filter_skips_well_learned() {
        let mut h = Hippocampus::new(CapacityPolicy::ConfidenceFiltered {
            capacity: 10,
            skip_above: 0.9,
        });
        ep(&mut h, &[1], 0, 0.95, 0); // Skipped.
        ep(&mut h, &[2], 0, 0.5, 1); // Kept.
        assert_eq!(h.len(), 1);
        assert_eq!(h.skipped(), 1);
    }

    #[test]
    fn confidence_filter_evicts_highest_confidence() {
        let mut h = Hippocampus::new(CapacityPolicy::ConfidenceFiltered {
            capacity: 2,
            skip_above: 0.9,
        });
        ep(&mut h, &[1], 0, 0.8, 0);
        ep(&mut h, &[2], 0, 0.2, 1);
        ep(&mut h, &[3], 0, 0.5, 2);
        assert_eq!(h.len(), 2);
        assert!(h.episodes().iter().all(|e| e.confidence < 0.8));
    }

    #[test]
    fn consolidation_frees_replayed_episodes() {
        let mut h = Hippocampus::new(CapacityPolicy::Consolidating {
            capacity: 10,
            max_replays: 2,
        });
        ep(&mut h, &[1], 0, 0.5, 0);
        assert!(!h.mark_replayed(0));
        assert!(h.mark_replayed(0), "second replay consolidates");
        assert!(h.is_empty());
    }

    #[test]
    fn averaging_merges_similar_same_target_episodes() {
        let mut h = Hippocampus::new(CapacityPolicy::Averaging {
            capacity: 10,
            merge_overlap: 0.6,
        });
        ep(&mut h, &[1, 2, 3, 4], 7, 0.5, 0);
        ep(&mut h, &[1, 2, 3, 5], 7, 0.7, 1); // Jaccard 3/5 = 0.6.
        assert_eq!(h.len(), 1);
        assert_eq!(h.episodes()[0].weight, 2);
        assert_eq!(h.merged(), 1);
        // Different target never merges.
        ep(&mut h, &[1, 2, 3, 4], 9, 0.5, 2);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn sampling_is_without_replacement_and_in_range() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
        for i in 0..20u64 {
            ep(&mut h, &[i as u32], 0, 0.5, i);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s = h.sample(8, &mut rng);
        assert_eq!(s.len(), 8);
        let set: std::collections::HashSet<usize> = s.iter().copied().collect();
        assert_eq!(set.len(), 8);
        assert!(s.iter().all(|&i| i < 20));
        // k > n returns everything.
        assert_eq!(h.sample(100, &mut rng).len(), 20);
        // Empty store returns nothing.
        let empty = Hippocampus::new(CapacityPolicy::Unbounded);
        assert!(empty.sample(5, &mut rng).is_empty());
    }

    #[test]
    fn other_phase_sampling_prefers_old_phases() {
        let mut h = Hippocampus::new(CapacityPolicy::Unbounded);
        for i in 0..10u64 {
            h.store(
                vec![0],
                vec![i as u32],
                vec![],
                0,
                0.5,
                i,
                if i < 5 { 1 } else { 2 },
            );
        }
        let mut rng = StdRng::seed_from_u64(2);
        let s = h.sample_other_phases(3, 2, &mut rng);
        assert!(s.iter().all(|&i| h.episodes()[i].phase == 1));
    }

    #[test]
    fn capacity_zero_stores_nothing_but_counts_offers() {
        for policy in [
            CapacityPolicy::Ring { capacity: 0 },
            CapacityPolicy::ConfidenceFiltered {
                capacity: 0,
                skip_above: 0.9,
            },
            CapacityPolicy::Consolidating {
                capacity: 0,
                max_replays: 2,
            },
            CapacityPolicy::Averaging {
                capacity: 0,
                merge_overlap: 0.5,
            },
        ] {
            let mut h = Hippocampus::new(policy);
            for i in 0..5u64 {
                ep(&mut h, &[1], 0, 0.5, i);
            }
            assert!(h.is_empty(), "{policy:?}");
            assert_eq!(h.offered(), 5, "{policy:?}");
        }
    }

    #[test]
    fn ring_ties_evict_the_lowest_slot_like_the_scan() {
        // All stamps equal: the scan evicted the lowest slot, which
        // after the first swap_remove is no longer the earliest
        // inserted episode.
        let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity: 3 });
        let mut r = reference::RingRef::new(3);
        for bit in 0..12u32 {
            ep(&mut h, &[bit], 0, 0.5, 0);
            r.store(&[bit], 0, 0);
            assert_eq!(h.episodes(), r.episodes.as_slice());
        }
    }

    #[test]
    fn jaccard_corner_cases() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[]), 0.0);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-9);
    }

    /// The pre-index implementations: the O(capacity) minimum-
    /// `stored_at` ring eviction and Fisher–Yates over a materialized
    /// index array.
    mod reference {
        use super::*;

        /// A ring store that scans for the minimum `stored_at`.
        pub struct RingRef {
            pub episodes: Vec<Episode>,
            capacity: usize,
        }

        impl RingRef {
            pub fn new(capacity: usize) -> Self {
                Self {
                    episodes: Vec::new(),
                    capacity,
                }
            }

            pub fn store(&mut self, pattern: &[u32], now: u64, phase: u64) {
                if self.episodes.len() >= self.capacity {
                    let oldest = self
                        .episodes
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stored_at)
                        .map(|(i, _)| i);
                    if let Some(oldest) = oldest {
                        self.episodes.swap_remove(oldest);
                    }
                }
                self.episodes.push(Episode {
                    history: vec![0],
                    pattern: pattern.to_vec(),
                    recurrent: vec![],
                    target: 0,
                    confidence: 0.5,
                    stored_at: now,
                    phase,
                    replays: 0,
                    weight: 1,
                });
            }

            pub fn mark_replayed(&mut self, index: usize) {
                self.episodes[index].replays += 1;
            }
        }

        /// Partial Fisher–Yates over a materialized copy of `values`.
        pub fn shuffle_prefix(values: &[usize], k: usize, rng: &mut impl Rng) -> Vec<usize> {
            if values.is_empty() || k == 0 {
                return Vec::new();
            }
            if k >= values.len() {
                return values.to_vec();
            }
            let mut idx = values.to_vec();
            let n = idx.len();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }

        /// The old `sample_other_phases` (`None`: `sample`).
        pub fn sample(
            episodes: &[Episode],
            k: usize,
            other_than: Option<u64>,
            rng: &mut impl Rng,
        ) -> Vec<usize> {
            let all: Vec<usize> = (0..episodes.len()).collect();
            let Some(phase) = other_than else {
                return shuffle_prefix(&all, k, rng);
            };
            let others: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| episodes[i].phase != phase)
                .collect();
            if others.is_empty() {
                shuffle_prefix(&all, k, rng)
            } else {
                shuffle_prefix(&others, k, rng)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The indexed ring against the minimum-`stored_at` scan over
        /// random store/sample/replay/clear sequences with
        /// non-decreasing stamps (ties included).
        #[test]
        fn indexed_ring_matches_scan(
            capacity in 1usize..12,
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u8..10, 0u64..3, 0u64..3, 0usize..5), 1..200),
        ) {
            let mut h = Hippocampus::new(CapacityPolicy::Ring { capacity });
            let mut r = reference::RingRef::new(capacity);
            let (mut fast_rng, mut ref_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut now = 0u64;
            for (n, &(op, step, phase, k)) in ops.iter().enumerate() {
                match op {
                    0..=5 => {
                        now += step;
                        ep(&mut h, &[n as u32], 0, 0.5, now);
                        h.episodes.last_mut().expect("stored").phase = phase;
                        r.store(&[n as u32], now, phase);
                    }
                    6 => {
                        let other = (step > 0).then_some(phase);
                        let fast = match other {
                            Some(p) => h.sample_other_phases(k, p, &mut fast_rng),
                            None => h.sample(k, &mut fast_rng),
                        };
                        proptest::prop_assert_eq!(fast, reference::sample(&r.episodes, k, other, &mut ref_rng));
                    }
                    7 | 8 => {
                        let other = (op == 8).then_some(phase);
                        let mut visited = Vec::new();
                        h.replay_sample(k, other, &mut fast_rng, |e| visited.push(e.clone()));
                        let mut picks = reference::sample(&r.episodes, k, other, &mut ref_rng);
                        picks.sort_unstable_by(|a, b| b.cmp(a));
                        let mut expected = Vec::new();
                        for i in picks {
                            expected.push(r.episodes[i].clone());
                            r.mark_replayed(i);
                        }
                        proptest::prop_assert_eq!(visited, expected);
                    }
                    _ => {
                        h.clear();
                        r.episodes.clear();
                    }
                }
                proptest::prop_assert_eq!(h.episodes(), r.episodes.as_slice());
            }
        }

        /// Virtual Fisher–Yates against the materialized one: the same
        /// seeded RNG gives the same index lists.
        #[test]
        fn virtual_sampling_matches_materialized(
            n in 0usize..300,
            k in 0usize..40,
            seed in 0u64..1000,
        ) {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut out = Vec::new();
            sample_virtual(n, k, &mut a, &mut Vec::new(), &mut out);
            let all: Vec<usize> = (0..n).collect();
            proptest::prop_assert_eq!(out, reference::shuffle_prefix(&all, k, &mut b));
            // Both consumed the same draws.
            proptest::prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
