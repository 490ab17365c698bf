//! Differential proptests: the optimized kernels against the
//! pre-optimization reference implementations.
//!
//! The CSR forward walk, the scratch-buffer [`k_winners_into`], and
//! the word-at-a-time Eq.-1 update must be *bit-identical* to the
//! naive kernels they replaced ([`sparse::reference`],
//! [`kwta::k_winners_ref`]) — winners, scores, ops counts, and the
//! full weight array. This module is the refactor's behavior-
//! preservation proof; it lives in the crate (not `tests/`) so the
//! `#[cfg(test)]` reference kernels stay private.
//!
//! The whole module is `#[cfg(test)]` (declared so in `lib.rs`), which
//! the file-local lint cannot see:
// hnp-lint: allow-file(integer_purity)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bitset::BitSet;
use crate::kwta::{k_winners, k_winners_into, k_winners_ref};
use crate::sparse::{reference, SparseLayer};

const INPUTS: usize = 70; // Deliberately not a multiple of 64.
const OUTPUTS: usize = 12;
const CLAMP: i16 = 24;

fn layer_pair(seed: u64, connectivity: f64) -> (SparseLayer, SparseLayer) {
    let mut a_rng = StdRng::seed_from_u64(seed);
    let mut b_rng = StdRng::seed_from_u64(seed);
    (
        SparseLayer::new(INPUTS, OUTPUTS, connectivity, CLAMP, 2, &mut a_rng),
        SparseLayer::new(INPUTS, OUTPUTS, connectivity, CLAMP, 2, &mut b_rng),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized and reference kernels agree on every observable after
    /// an arbitrary interleaving of Hebbian/anti updates and probes.
    #[test]
    fn kernels_match_reference_bit_for_bit(
        seed in 0u64..64,
        conn_idx in 0usize..3,
        ops in proptest::collection::vec(
            (
                0u32..OUTPUTS as u32,
                proptest::collection::vec(0u32..INPUTS as u32, 0..12),
                1i16..5,
                1i16..3,
                any::<bool>(),
            ),
            1..50,
        ),
        probe in proptest::collection::vec(0u32..INPUTS as u32, 0..16),
    ) {
        let conn = [0.25f64, 0.5, 1.0][conn_idx];
        let (mut fast, mut naive) = layer_pair(seed, conn);
        prop_assert_eq!(fast.weights(), naive.weights(), "construction");

        for (out, active, pot, dep, anti) in &ops {
            let set = BitSet::from_indices(INPUTS, active);
            if *anti {
                fast.anti_update(*out, &set, *pot);
                reference::anti_update_ref(&mut naive, *out, &set, *pot);
            } else {
                fast.hebbian_update(*out, &set, *pot, *dep);
                reference::hebbian_update_ref(&mut naive, *out, &set, *pot, *dep);
            }
            prop_assert_eq!(fast.weights(), naive.weights(), "weights diverged");
        }

        let mut probe_sorted = probe.clone();
        probe_sorted.sort_unstable();
        probe_sorted.dedup();
        let mut fast_scores = vec![0i32; OUTPUTS];
        let ops_count = fast.forward(&probe_sorted, &mut fast_scores);
        let mut ref_scores = vec![0i32; OUTPUTS];
        reference::forward_ref(&naive, &probe_sorted, &mut ref_scores);
        prop_assert_eq!(&fast_scores, &ref_scores, "forward scores diverged");
        let expected_ops: usize = probe_sorted.iter().map(|&i| fast.fan_out(i)).sum();
        prop_assert_eq!(ops_count, expected_ops, "forward ops count");
    }

    /// The scratch-buffer k-WTA equals both the allocating wrapper and
    /// the full-sort reference, including tie-heavy score vectors.
    /// `wide` scales the scores so both strategies — counting
    /// selection (tight spread) and packed quickselect (wide spread) —
    /// are exercised on the same tie structure.
    #[test]
    fn kwta_matches_reference(
        scores in proptest::collection::vec(-8i32..8, 1..300),
        k in 0usize..320,
        wide in any::<bool>(),
    ) {
        let scores: Vec<i32> = if wide {
            scores.iter().map(|&s| s * 1_000_000).collect()
        } else {
            scores
        };
        let mut scratch = Vec::new();
        let mut winners = Vec::new();
        k_winners_into(&scores, k, &mut scratch, &mut winners);
        prop_assert_eq!(&winners, &k_winners(&scores, k));
        prop_assert_eq!(&winners, &k_winners_ref(&scores, k.min(scores.len())));
    }

    /// Saturating Eq.-1 arithmetic: under an extreme clamp the update
    /// never overflows and both implementations still agree.
    #[test]
    fn extreme_clamp_never_overflows(
        seed in 0u64..16,
        rounds in 1usize..8,
        pot in 1i16..=i16::MAX,
        dep in 0i16..=i16::MAX,
    ) {
        let mut a_rng = StdRng::seed_from_u64(seed);
        let mut b_rng = StdRng::seed_from_u64(seed);
        let mut fast = SparseLayer::new(8, 2, 1.0, i16::MAX, 1, &mut a_rng);
        let mut naive = SparseLayer::new(8, 2, 1.0, i16::MAX, 1, &mut b_rng);
        let active = BitSet::from_indices(8, &[0, 2, 4, 6]);
        for _ in 0..rounds {
            fast.hebbian_update(0, &active, pot, dep);
            reference::hebbian_update_ref(&mut naive, 0, &active, pot, dep);
            fast.anti_update(1, &active, dep);
            reference::anti_update_ref(&mut naive, 1, &active, dep);
        }
        // Reaching this point is the overflow check: with wrapping or
        // unchecked arithmetic the debug build would have panicked on
        // `i16::MAX + pot` long before the equality assert.
        prop_assert_eq!(fast.weights(), naive.weights());
    }
}

/// Top-k by selection against the full sort it replaced.
#[cfg(test)]
mod top_k {
    use proptest::prelude::*;

    use crate::network::top_classes;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn selection_matches_full_sort(
            scores in proptest::collection::vec(-6i32..6, 1..160),
            width in 1usize..170,
        ) {
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
            order.truncate(width);
            let mut out = vec![usize::MAX];
            top_classes(&scores, width, &mut Vec::new(), &mut out);
            prop_assert_eq!(out[0], usize::MAX, "appends");
            prop_assert_eq!(&out[1..], order.as_slice());
        }
    }
}

/// Network-level differential check: a snapshot taken through the
/// flat-weight state API before any CSR-era step restores into a CSR
/// network and continues bit-identically — the layout contract the
/// serve snapshot codec relies on.
#[cfg(test)]
mod network_level {
    use crate::network::{HebbianConfig, HebbianNetwork};

    #[test]
    fn weight_layout_is_output_major_slot_order() {
        let cfg = HebbianConfig::tiny();
        let mut net = HebbianNetwork::new(cfg.clone());
        for i in 0..40u32 {
            net.train_step(
                &[i % cfg.pattern_bits as u32],
                (i as usize + 1) % cfg.outputs,
            );
        }
        let state = net.export_state();
        let mut restored = HebbianNetwork::new(cfg);
        restored.import_state(&state).expect("same geometry");
        for i in 0..8u32 {
            let a = net.infer(&[i % 16], 0);
            let b = restored.infer(&[i % 16], 0);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.ops, b.ops);
        }
    }
}

/// The forward memo against a network that recomputes every pass:
/// arbitrary interleavings of training (full, scaled and zero rate),
/// inference, rollouts, recurrent-state writes and state imports give
/// identical outcomes, counters, weights and recurrent state.
#[cfg(test)]
mod forward_memo {
    use proptest::prelude::*;

    use crate::lr::LrScale;
    use crate::network::{HebbianConfig, HebbianNetwork, HebbianOutcome, RecurrentStyle};

    /// Patterns come from a few bits so that inputs repeat and the memo
    /// is hit often.
    const BITS: u32 = 4;

    fn same_outcome(a: &HebbianOutcome, b: &HebbianOutcome) -> bool {
        a.predicted == b.predicted
            && a.confidence.to_bits() == b.confidence.to_bits()
            && a.correct == b.correct
            && a.ops == b.ops
    }

    fn pattern(bits: &[u32]) -> Vec<u32> {
        let mut p: Vec<u32> = bits.iter().map(|b| b % BITS).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn memo_matches_recomputation(
            trace_style in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..9, proptest::collection::vec(0u32..BITS, 1..3), 0usize..16, 0u8..3, any::<bool>()),
                1..80,
            ),
        ) {
            let cfg = HebbianConfig {
                recurrent_style: if trace_style {
                    RecurrentStyle::WinnerTrace
                } else {
                    RecurrentStyle::PatternCode
                },
                ..HebbianConfig::tiny()
            };
            let outputs = cfg.outputs;
            let mut memo = HebbianNetwork::new(cfg.clone());
            let mut plain = HebbianNetwork::new(cfg);
            let mut snapshot = memo.export_state();
            prop_assert_eq!(&snapshot, &plain.export_state());
            let (mut memo_preds, mut plain_preds) = (Vec::new(), Vec::new());
            for (op, bits, class, pick, flag) in &ops {
                let p = pattern(bits);
                let scale = [LrScale::ONE, LrScale::from_ratio(1, 3), LrScale::ZERO][*pick as usize];
                let width = *pick as usize + 1;
                let steps = *class % 4;
                let encode = |t: usize, buf: &mut Vec<u32>| {
                    buf.clear();
                    buf.push(t as u32 % BITS);
                };
                plain.clear_forward_memo();
                match op {
                    0 | 1 => {
                        let a = memo.train_step_opts(&p, *class, scale, *flag);
                        let b = plain.train_step_opts(&p, *class, scale, *flag);
                        prop_assert!(same_outcome(&a, &b), "train {:?} vs {:?}", a, b);
                    }
                    2 => {
                        let a = memo.infer(&p, *class);
                        let b = plain.infer(&p, *class);
                        prop_assert!(same_outcome(&a, &b), "infer {:?} vs {:?}", a, b);
                    }
                    3 => {
                        let a = memo.infer_advance(&p, *class);
                        let b = plain.infer_advance(&p, *class);
                        prop_assert!(same_outcome(&a, &b), "infer_advance {:?} vs {:?}", a, b);
                    }
                    4 | 5 => {
                        // A rollout, then (op 5) training on its first
                        // input: the CLS miss path's reuse.
                        let a = memo.rollout_into(&p, steps, width, encode, &mut memo_preds);
                        let b = plain.rollout_into(&p, steps, width, encode, &mut plain_preds);
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                        prop_assert_eq!(&memo_preds, &plain_preds);
                        if *op == 5 {
                            plain.clear_forward_memo();
                            let a = memo.train_step_opts(&p, *class % outputs, scale, *flag);
                            let b = plain.train_step_opts(&p, *class % outputs, scale, *flag);
                            prop_assert!(same_outcome(&a, &b), "reused train {:?} vs {:?}", a, b);
                            // The same input again: a stale memo would
                            // serve pre-update scores here.
                            plain.clear_forward_memo();
                            let a = memo.infer(&p, *class % outputs);
                            let b = plain.infer(&p, *class % outputs);
                            prop_assert!(same_outcome(&a, &b), "infer after train {:?} vs {:?}", a, b);
                        }
                    }
                    6 => {
                        let r: Vec<u32> = bits.iter().map(|b| b * 7 % 32).collect();
                        memo.set_recurrent_state(&r);
                        plain.set_recurrent_state(&r);
                    }
                    7 => {
                        memo.import_state(&snapshot).expect("same geometry");
                        plain.import_state(&snapshot).expect("same geometry");
                    }
                    _ => {
                        snapshot = memo.export_state();
                        prop_assert_eq!(&snapshot, &plain.export_state());
                    }
                }
                prop_assert_eq!(memo.stats(), plain.stats());
                prop_assert_eq!(memo.weights(), plain.weights());
                prop_assert_eq!(memo.recurrent_state(), plain.recurrent_state());
            }
        }
    }

    /// A rollout followed by training on its first input serves that
    /// forward from the memo; the training update, or a state import
    /// in between, ends the reuse.
    #[test]
    fn rollout_then_train_reuses_unless_weights_change() {
        let mut net = HebbianNetwork::new(HebbianConfig::tiny());
        for i in 0..30u32 {
            net.train_step(&[i % BITS], (i as usize + 1) % 16);
        }
        let before = net.export_state();
        let encode = |t: usize, buf: &mut Vec<u32>| *buf = vec![t as u32 % BITS];
        let mut preds = Vec::new();
        // Training on [1] leaves the recurrent code of [1], so the key
        // of the rollout below recurs after the next training step.
        net.train_step(&[1], 2);
        net.rollout_into(&[1], 2, 2, encode, &mut preds);
        let steps = net.stats().steps;
        net.train_step(&[1], 2);
        assert_eq!(net.forwards_reused(), 1);
        assert_eq!(net.stats().steps, steps + 1, "a reused pass still counts");
        let mut fresh = net.clone();
        fresh.clear_forward_memo();
        let (a, b) = (net.infer(&[1], 2), fresh.infer(&[1], 2));
        assert_eq!(net.forwards_reused(), 1, "the update invalidated the memo");
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());

        net.rollout_into(&[1], 2, 2, encode, &mut preds);
        net.import_state(&before).expect("same geometry");
        net.train_step(&[1], 2);
        assert_eq!(net.forwards_reused(), 1, "import invalidates the memo");
    }
}
