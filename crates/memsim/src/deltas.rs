//! The bounded delta vocabulary and miss-history window.
//!
//! Learned prefetchers (LSTM and Hebbian alike) predict over a bounded
//! vocabulary of page deltas, as in prior DL prefetching work the
//! paper builds on. Deltas inside `[-range, range]` map to dedicated
//! tokens; everything else maps to a shared out-of-vocabulary token on
//! input and is never predicted as a prefetch (§5.3 discusses the
//! limits of this encoding; the `ablate_encoding` harness sweeps
//! alternatives).

use std::collections::VecDeque;

/// Bidirectional delta <-> token map.
#[derive(Debug, Clone)]
pub struct DeltaVocab {
    range: i64,
}

impl DeltaVocab {
    /// Vocabulary over deltas in `[-range, range]`, excluding 0 (a
    /// repeated page is not a miss under inclusion), plus one
    /// out-of-vocabulary token.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    pub fn new(range: i64) -> Self {
        assert!(range > 0, "range must be positive");
        Self { range }
    }

    /// Number of tokens (including the OOV token).
    pub fn len(&self) -> usize {
        (2 * self.range + 2) as usize
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The out-of-vocabulary token.
    pub fn oov(&self) -> usize {
        (2 * self.range + 1) as usize
    }

    /// Maps a delta to its token (OOV if out of range or zero).
    pub fn token_of(&self, delta: i64) -> usize {
        if delta == 0 || delta.abs() > self.range {
            self.oov()
        } else if delta > 0 {
            // 1..=range -> 0..range-1.
            (delta - 1) as usize
        } else {
            // -1..=-range -> range..2*range-1.
            (self.range - 1 - delta) as usize
        }
    }

    /// Maps a token back to a delta; `None` for the OOV token.
    ///
    /// # Panics
    ///
    /// Panics if `token >= len()`.
    pub fn delta_of(&self, token: usize) -> Option<i64> {
        assert!(token < self.len(), "token {} out of range", token);
        if token == self.oov() {
            None
        } else if (token as i64) < self.range {
            Some(token as i64 + 1)
        } else {
            Some(self.range - 1 - token as i64)
        }
    }
}

/// Translates a multi-step, multi-width token rollout into prefetch
/// pages: the top-1 delta of each step advances a running base page;
/// the additional candidates at each step branch off the pre-step
/// base. An out-of-vocabulary top-1 stops the walk (the model declines
/// to guess further).
///
/// Pages are deduplicated across the *whole* rollout, preserving
/// first-emission order: a multi-step walk over a short cycle (or an
/// alternate that lands on a later top-1 page) would otherwise issue
/// the same prefetch several times, inflating issued-line counts and
/// wasting queue slots downstream. The output holds at most
/// steps × width pages, so a scan of it is the seen-set.
///
/// `rollout` yields one step's candidates at a time (top-1 first): a
/// `&[Vec<usize>]`, or the rows of a flat buffer via `chunks`.
pub fn pages_from_rollout<I>(vocab: &DeltaVocab, base: u64, rollout: I) -> Vec<u64>
where
    I: IntoIterator,
    I::Item: AsRef<[usize]>,
{
    let mut out = Vec::new();
    let mut acc = base as i64;
    for step in rollout {
        let step = step.as_ref();
        let Some(&top) = step.first() else { break };
        let Some(d) = vocab.delta_of(top) else {
            break;
        };
        let next = acc + d;
        if next >= 0 && !out.contains(&(next as u64)) {
            out.push(next as u64);
        }
        for &alt in step.iter().skip(1) {
            if let Some(da) = vocab.delta_of(alt) {
                let p = acc + da;
                if p >= 0 && !out.contains(&(p as u64)) {
                    out.push(p as u64);
                }
            }
        }
        acc = next;
    }
    out
}

/// A sliding window over the recent miss pages, producing delta
/// tokens (the paper's "miss history"; §5.2 discusses sizing it).
#[derive(Debug, Clone)]
pub struct MissHistory {
    pages: VecDeque<u64>,
    window: usize,
}

impl MissHistory {
    /// A history holding up to `window + 1` pages (so `window` deltas).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            pages: VecDeque::with_capacity(window + 1),
            window,
        }
    }

    /// Records a miss page.
    pub fn push(&mut self, page: u64) {
        if self.pages.len() > self.window {
            self.pages.pop_front();
        }
        self.pages.push_back(page);
    }

    /// The most recent miss page.
    pub fn last_page(&self) -> Option<u64> {
        self.pages.back().copied()
    }

    /// The most recent delta (newest pair), if two misses have been
    /// seen.
    pub fn last_delta(&self) -> Option<i64> {
        let n = self.pages.len();
        (n >= 2).then(|| self.pages[n - 1] as i64 - self.pages[n - 2] as i64)
    }

    /// All deltas in the window, oldest first.
    pub fn deltas(&self) -> Vec<i64> {
        self.pages
            .iter()
            .zip(self.pages.iter().skip(1))
            .map(|(&a, &b)| b as i64 - a as i64)
            .collect()
    }

    /// All deltas as tokens under `vocab`, oldest first.
    pub fn tokens(&self, vocab: &DeltaVocab) -> Vec<usize> {
        self.deltas().iter().map(|&d| vocab.token_of(d)).collect()
    }

    /// Clears the history (phase boundary).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_delta_roundtrip() {
        let v = DeltaVocab::new(64);
        for d in -64i64..=64 {
            if d == 0 {
                continue;
            }
            let t = v.token_of(d);
            assert_eq!(v.delta_of(t), Some(d), "delta {d}");
            assert!(t < v.len());
        }
    }

    #[test]
    fn out_of_range_maps_to_oov() {
        let v = DeltaVocab::new(8);
        assert_eq!(v.token_of(9), v.oov());
        assert_eq!(v.token_of(-100), v.oov());
        assert_eq!(v.token_of(0), v.oov());
        assert_eq!(v.delta_of(v.oov()), None);
    }

    #[test]
    fn tokens_are_distinct_within_range() {
        let v = DeltaVocab::new(16);
        let mut seen = std::collections::HashSet::new();
        for d in -16i64..=16 {
            if d == 0 {
                continue;
            }
            assert!(seen.insert(v.token_of(d)), "token collision for {d}");
        }
    }

    #[test]
    fn vocab_len_matches_token_space() {
        let v = DeltaVocab::new(4);
        // 4 positive + 4 negative + OOV = 9, plus token indexes 0..9.
        assert_eq!(v.len(), 10);
        assert_eq!(v.oov(), 9);
    }

    #[test]
    fn history_produces_windowed_deltas() {
        let mut h = MissHistory::new(3);
        for p in [10u64, 11, 13, 20, 21] {
            h.push(p);
        }
        assert_eq!(h.deltas(), vec![2, 7, 1]);
        assert_eq!(h.last_delta(), Some(1));
        assert_eq!(h.last_page(), Some(21));
    }

    #[test]
    fn history_shorter_than_two_has_no_delta() {
        let mut h = MissHistory::new(4);
        assert_eq!(h.last_delta(), None);
        h.push(5);
        assert_eq!(h.last_delta(), None);
        assert!(h.deltas().is_empty());
    }

    #[test]
    fn clear_resets_history() {
        let mut h = MissHistory::new(2);
        h.push(1);
        h.push(2);
        h.clear();
        assert_eq!(h.last_page(), None);
    }

    #[test]
    fn rollout_walks_and_branches() {
        let v = DeltaVocab::new(8);
        // Step 1: top +2 (page 102), alt +5 (page 105).
        // Step 2 (from 102): top +3 (page 105 — already emitted), alt -1 (101).
        let rollout = vec![
            vec![v.token_of(2), v.token_of(5)],
            vec![v.token_of(3), v.token_of(-1)],
        ];
        assert_eq!(pages_from_rollout(&v, 100, &rollout), vec![102, 105, 101]);
    }

    #[test]
    fn rollout_dedups_pages_across_steps() {
        // Regression: dedup used to compare alternates only against the
        // current step's top-1 page, so a rollout cycling over a short
        // loop (+1, -1, +1, ...) re-emitted earlier pages and the
        // prefetch queue issued duplicate fetches.
        let v = DeltaVocab::new(4);
        let rollout = vec![
            vec![v.token_of(1)],                 // 101
            vec![v.token_of(-1)],                // 100 — base revisited, new emission
            vec![v.token_of(1)],                 // 101 again: suppressed
            vec![v.token_of(2), v.token_of(-1)], // 103; alt 100 suppressed
        ];
        assert_eq!(pages_from_rollout(&v, 100, &rollout), vec![101, 100, 103]);
    }

    #[test]
    fn rollout_stops_at_oov_top1() {
        let v = DeltaVocab::new(4);
        let rollout = vec![
            vec![v.token_of(1)],
            vec![v.oov(), v.token_of(2)], // Model declines; alts ignored too.
            vec![v.token_of(1)],
        ];
        assert_eq!(pages_from_rollout(&v, 50, &rollout), vec![51]);
    }

    #[test]
    fn tokens_use_vocab_mapping() {
        let v = DeltaVocab::new(4);
        let mut h = MissHistory::new(2);
        h.push(100);
        h.push(101); // Delta +1.
        h.push(90); // Delta -11 -> OOV.
        let t = h.tokens(&v);
        assert_eq!(t, vec![v.token_of(1), v.oov()]);
    }
}
