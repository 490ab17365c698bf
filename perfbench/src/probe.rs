//! The CLS component probe.
//!
//! `ClsPrefetcher::on_miss` is one opaque call from outside the crate.
//! To split it into stages without tracing inside `hnp-core`, the probe
//! builds fresh components of the workload's configuration
//! (`ClsConfig::default()`) and drives them through their public APIs
//! with the miss-delta tokens the traced run recorded, in the order
//! `on_miss` calls them, clocking each call.

use std::collections::VecDeque;
use std::time::Instant;

use hnp_core::episodic::{EpisodicBackend, EpisodicStore};
use hnp_core::hippocampus::{CapacityPolicy, Episode, Hippocampus};
use hnp_core::neocortex::Neocortex;
use hnp_core::phase::PhaseDetector;
use hnp_core::replay::ReplayScheduler;
use hnp_core::{ClsConfig, Encoder};
use hnp_memsim::DeltaVocab;

use crate::stats::quantile_ns;

/// Stage names, in call order within one miss.
pub const STAGES: [&str; 6] = ["encode", "train", "store", "replay", "phase", "predict"];

fn clock<T>(samples: &mut Vec<u32>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    samples.push(u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX));
    out
}

/// Replays the misses at `pages` through fresh CLS components and
/// returns the median host nanoseconds of each stage in [`STAGES`]
/// order.
pub fn cls_stage_p50s(pages: &[u64]) -> [f64; 6] {
    let cfg = ClsConfig::default();
    let vocab = DeltaVocab::new(cfg.delta_range);
    let encoder = Encoder::new(cfg.encoder, vocab.len());
    let mut cortex = Neocortex::new(&encoder, vocab.len(), &cfg.neocortex);
    // The default configuration uses the exact ring buffer.
    let policy = match cfg.episodic {
        EpisodicBackend::Exact(p) => p,
        EpisodicBackend::Associative { .. } => CapacityPolicy::Unbounded,
    };
    let mut hippo = Hippocampus::new(policy);
    let mut replay = ReplayScheduler::new(cfg.replay.clone());
    let mut phase = cfg
        .phase
        .clone()
        .map(|p| PhaseDetector::new(vocab.len(), p));
    let window = encoder.window();
    let (lookahead, width) = (cfg.lookahead, cfg.width);

    let mut samples: [Vec<u32>; 6] = Default::default();
    let mut history: VecDeque<usize> = VecDeque::new();
    let last_window = |h: &VecDeque<usize>| -> Vec<usize> {
        h.iter()
            .skip(h.len().saturating_sub(window))
            .copied()
            .collect()
    };
    for (step, w) in pages.windows(2).enumerate() {
        let token = vocab.token_of(w[1] as i64 - w[0] as i64);
        let ctx = last_window(&history);
        history.push_back(token);
        while history.len() > window + 1 {
            history.pop_front();
        }
        let hist = last_window(&history);
        let current = phase.as_ref().map_or(0, |p| p.current_phase());
        if !ctx.is_empty() {
            let [enc, train, store, rep, ..] = &mut samples;
            let pattern = clock(enc, || encoder.encode(&ctx));
            let recurrent = cortex.recurrent_state();
            let outcome = clock(train, || cortex.train(&pattern, token));
            clock(store, || {
                hippo.store_episode(Episode {
                    history: ctx,
                    pattern,
                    recurrent,
                    target: token,
                    confidence: outcome.confidence,
                    stored_at: step as u64,
                    phase: current,
                    replays: 0,
                    weight: 1,
                })
            });
            clock(rep, || {
                replay.after_train(&mut cortex, &mut hippo, &encoder, current)
            });
        }
        if let Some(pd) = &mut phase {
            clock(&mut samples[4], || pd.observe(token));
        }
        clock(&mut samples[5], || {
            cortex.predict_with_confidence(&hist, &encoder, lookahead, width)
        });
    }
    samples.map(|mut s| quantile_ns(&mut s, 0.5))
}
