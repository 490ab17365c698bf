//! Hippocampal associative-memory substrates.
//!
//! CLS theory (Fig. 4 of the paper) models the hippocampus as a fast
//! associative store built from three mechanisms:
//!
//! * **pattern separation** — incoming dense patterns are re-coded as
//!   sparse, well-separated codes (dentate gyrus);
//! * **auto-association** — stored codes are attractors that can be
//!   completed from partial cues (CA3);
//! * **hetero-association** — a completed code recalls the value
//!   stored with it.
//!
//! These are implemented as binary Willshaw-style matrices over the
//! [`BitSet`] type: storage is a clipped Hebbian OR of outer products,
//! recall is a thresholded integer dot product.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitset::BitSet;
use crate::kwta::k_winners;

/// Re-codes arbitrary binary patterns as fixed-sparsity codes via a
/// fixed random projection followed by k-WTA.
#[derive(Debug, Clone)]
pub struct PatternSeparator {
    input_bits: usize,
    code_bits: usize,
    code_active: usize,
    /// `proj[c]` = the input bits that code unit `c` samples.
    proj: Vec<Vec<u32>>,
}

impl PatternSeparator {
    /// Creates a separator from `input_bits`-wide patterns to codes of
    /// `code_bits` with exactly `code_active` active units, each code
    /// unit sampling `samples` random input bits.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or `code_active > code_bits`.
    pub fn new(
        input_bits: usize,
        code_bits: usize,
        code_active: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        assert!(input_bits > 0 && code_bits > 0 && samples > 0);
        assert!(code_active > 0 && code_active <= code_bits);
        let mut rng = StdRng::seed_from_u64(seed);
        let proj = (0..code_bits)
            .map(|_| {
                (0..samples)
                    .map(|_| rng.gen_range(0..input_bits as u32))
                    .collect()
            })
            .collect();
        Self {
            input_bits,
            code_bits,
            code_active,
            proj,
        }
    }

    /// Code width.
    pub fn code_bits(&self) -> usize {
        self.code_bits
    }

    /// Active units per code.
    pub fn code_active(&self) -> usize {
        self.code_active
    }

    /// Separates `pattern` into a sparse code.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's capacity mismatches `input_bits`.
    pub fn separate(&self, pattern: &BitSet) -> BitSet {
        assert_eq!(
            pattern.capacity(),
            self.input_bits,
            "pattern width mismatch"
        );
        let scores: Vec<i32> = self
            .proj
            .iter()
            .map(|samples| {
                samples
                    .iter()
                    .filter(|&&b| pattern.contains(b as usize))
                    .count() as i32
            })
            .collect();
        let winners = k_winners(&scores, self.code_active);
        BitSet::from_indices(self.code_bits, &winners)
    }
}

/// A binary hetero-associative Willshaw memory mapping sparse key codes
/// to sparse value codes.
#[derive(Debug, Clone)]
pub struct WillshawMemory {
    key_bits: usize,
    value_bits: usize,
    /// Row-major binary weight matrix: `w[v][k]` set iff some stored
    /// pair had key bit `k` and value bit `v` both active.
    weights: Vec<BitSet>,
    stored: usize,
}

impl WillshawMemory {
    /// Creates an empty memory between the given code widths.
    pub fn new(key_bits: usize, value_bits: usize) -> Self {
        Self {
            key_bits,
            value_bits,
            weights: (0..value_bits).map(|_| BitSet::new(key_bits)).collect(),
            stored: 0,
        }
    }

    /// Number of stored associations.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Stores `key -> value` by OR-ing the outer product into the
    /// binary matrix (one-shot Hebbian storage).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn store(&mut self, key: &BitSet, value: &BitSet) {
        assert_eq!(key.capacity(), self.key_bits, "key width mismatch");
        assert_eq!(value.capacity(), self.value_bits, "value width mismatch");
        for v in value.iter() {
            for k in key.iter() {
                self.weights[v].insert(k);
            }
        }
        self.stored += 1;
    }

    /// Recalls the value for `key`: value units whose stored key
    /// overlap reaches `threshold` fire. With `threshold` equal to the
    /// key's active-bit count, recall is exact for undersaturated
    /// memories.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn recall(&self, key: &BitSet, threshold: usize) -> BitSet {
        assert_eq!(key.capacity(), self.key_bits, "key width mismatch");
        let mut out = BitSet::new(self.value_bits);
        for (v, row) in self.weights.iter().enumerate() {
            if row.overlap(key) >= threshold {
                out.insert(v);
            }
        }
        out
    }

    /// Per-value-bit overlap scores for `key`: how many of the key's
    /// active bits each value unit is connected to. Decoders that need
    /// a ranking (e.g. "which target class does this cue recall?") use
    /// this instead of thresholded [`recall`](Self::recall).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn recall_scores(&self, key: &BitSet) -> Vec<usize> {
        assert_eq!(key.capacity(), self.key_bits, "key width mismatch");
        self.weights.iter().map(|row| row.overlap(key)).collect()
    }

    /// Fraction of set weight bits (saturation). Willshaw capacity
    /// analysis says recall degrades as this approaches 0.5.
    // hnp-lint: allow(integer_purity): diagnostic capacity readout
    pub fn saturation(&self) -> f64 {
        let set: usize = self.weights.iter().map(|r| r.count()).sum();
        // hnp-lint: allow(integer_purity): diagnostic capacity readout
        set as f64 / (self.key_bits * self.value_bits) as f64
    }
}

/// A binary auto-associative memory (CA3-style): stored codes become
/// attractors that can be completed from partial cues.
#[derive(Debug, Clone)]
pub struct AutoAssociativeMemory {
    bits: usize,
    active: usize,
    weights: Vec<BitSet>,
    stored: usize,
}

impl AutoAssociativeMemory {
    /// Creates an empty auto-associator over codes of `bits` width and
    /// `active` active units.
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero or exceeds `bits`.
    pub fn new(bits: usize, active: usize) -> Self {
        assert!(active > 0 && active <= bits);
        Self {
            bits,
            active,
            weights: (0..bits).map(|_| BitSet::new(bits)).collect(),
            stored: 0,
        }
    }

    /// Number of stored codes.
    pub fn stored(&self) -> usize {
        self.stored
    }

    /// Stores `code` as an attractor (self-connections excluded).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn store(&mut self, code: &BitSet) {
        assert_eq!(code.capacity(), self.bits, "code width mismatch");
        for a in code.iter() {
            for b in code.iter() {
                if a != b {
                    self.weights[a].insert(b);
                }
            }
        }
        self.stored += 1;
    }

    /// Completes a partial cue by iterating thresholded recall until a
    /// fixed point or `max_iters`. Each iteration re-activates the
    /// `active` units with the highest recurrent support.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn complete(&self, cue: &BitSet, max_iters: usize) -> BitSet {
        assert_eq!(cue.capacity(), self.bits, "cue width mismatch");
        let mut current = cue.clone();
        for _ in 0..max_iters {
            let scores: Vec<i32> = self
                .weights
                .iter()
                .map(|row| row.overlap(&current) as i32)
                .collect();
            let winners = k_winners(&scores, self.active);
            let next = BitSet::from_indices(self.bits, &winners);
            if next == current {
                break;
            }
            current = next;
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_code(bits: usize, active: usize, rng: &mut StdRng) -> BitSet {
        let mut s = BitSet::new(bits);
        while s.count() < active {
            s.insert(rng.gen_range(0..bits));
        }
        s
    }

    #[test]
    fn separator_produces_fixed_sparsity() {
        let sep = PatternSeparator::new(64, 256, 16, 8, 1);
        let p = BitSet::from_indices(64, &[1, 5, 9]);
        let code = sep.separate(&p);
        assert_eq!(code.count(), 16);
    }

    #[test]
    fn separator_separates_similar_patterns() {
        let sep = PatternSeparator::new(64, 512, 24, 8, 1);
        let a = BitSet::from_indices(64, &[1, 5, 9, 20]);
        let b = BitSet::from_indices(64, &[1, 5, 9, 21]); // One bit differs.
        let ca = sep.separate(&a);
        let cb = sep.separate(&b);
        // Codes differ (separation) but are not unrelated.
        assert!(ca != cb, "similar patterns must map to distinct codes");
    }

    #[test]
    fn separator_is_deterministic() {
        let sep = PatternSeparator::new(64, 256, 16, 8, 7);
        let p = BitSet::from_indices(64, &[3, 33, 63]);
        assert_eq!(sep.separate(&p), sep.separate(&p));
    }

    #[test]
    fn willshaw_recalls_stored_pairs_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mem = WillshawMemory::new(256, 256);
        let pairs: Vec<(BitSet, BitSet)> = (0..20)
            .map(|_| {
                (
                    random_code(256, 12, &mut rng),
                    random_code(256, 12, &mut rng),
                )
            })
            .collect();
        for (k, v) in &pairs {
            mem.store(k, v);
        }
        for (k, v) in &pairs {
            let r = mem.recall(k, k.count());
            // Exact threshold recall returns a superset containing the
            // stored value; for low saturation it is exactly the value.
            for bit in v.iter() {
                assert!(r.contains(bit), "missing stored value bit {bit}");
            }
        }
        assert!(mem.saturation() < 0.2, "memory should be undersaturated");
    }

    #[test]
    fn willshaw_recall_degrades_with_saturation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mem = WillshawMemory::new(64, 64);
        let probe_k = random_code(64, 8, &mut rng);
        let probe_v = random_code(64, 8, &mut rng);
        mem.store(&probe_k, &probe_v);
        let clean = mem.recall(&probe_k, probe_k.count());
        // Saturate with many random pairs.
        for _ in 0..500 {
            let k = random_code(64, 8, &mut rng);
            let v = random_code(64, 8, &mut rng);
            mem.store(&k, &v);
        }
        let noisy = mem.recall(&probe_k, probe_k.count());
        assert!(mem.saturation() > 0.5);
        assert!(
            noisy.count() >= clean.count(),
            "saturated recall adds spurious bits"
        );
    }

    #[test]
    fn auto_associator_completes_partial_cues() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mem = AutoAssociativeMemory::new(256, 12);
        let codes: Vec<BitSet> = (0..10).map(|_| random_code(256, 12, &mut rng)).collect();
        for c in &codes {
            mem.store(c);
        }
        for c in &codes {
            // Cue with 7 of 12 bits.
            let mut cue = BitSet::new(256);
            for (n, bit) in c.iter().enumerate() {
                if n < 7 {
                    cue.insert(bit);
                }
            }
            let completed = mem.complete(&cue, 5);
            let overlap = completed.overlap(c);
            assert!(overlap >= 10, "completion recovered only {overlap}/12 bits");
        }
    }

    #[test]
    fn empty_memory_recall_is_empty() {
        let mem = WillshawMemory::new(32, 32);
        let k = BitSet::from_indices(32, &[1, 2, 3]);
        assert_eq!(mem.recall(&k, 3).count(), 0);
    }
}
