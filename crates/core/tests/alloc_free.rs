//! Allocation accounting for the CLS miss path.
//!
//! Once the default episodic ring is full, a miss allocates only what
//! it hands off: the stored `Episode`'s three owned vectors (history,
//! pattern, recurrent context) and the `Vec<u64>` of prefetch pages
//! that `on_miss` returns. Every other buffer on the path (contexts,
//! rollout rows, replay sampling, the saved recurrent state, the phase
//! histogram) is reused across misses. A counting global allocator
//! checks the mean over a steady-state `Simulator::run` with
//! `ClsConfig::default()`.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_core::episodic::EpisodicBackend;
use hnp_core::hippocampus::CapacityPolicy;
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{MissEvent, Prefetcher, SimConfig, Simulator};
use hnp_obs::Event;
use hnp_trace::apps::AppWorkload;
use hnp_trace::phased;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY-free wrapper: defers entirely to `System`, adding one
// relaxed counter bump per allocation/reallocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Counts the allocations of every prefetcher call made once the
/// episodic ring is full.
struct Metered {
    inner: ClsPrefetcher,
    capacity: usize,
    misses: u64,
    allocs: u64,
}

impl Metered {
    fn steady(&self) -> bool {
        self.inner.episodic().stored() >= self.capacity
    }
}

impl Prefetcher for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let steady = self.steady();
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = self.inner.on_miss(miss);
        if steady {
            self.allocs += ALLOCS.load(Ordering::Relaxed) - before;
            self.misses += 1;
        }
        out
    }

    fn on_event(&mut self, ev: &Event) {
        let steady = self.steady();
        let before = ALLOCS.load(Ordering::Relaxed);
        self.inner.on_event(ev);
        if steady {
            self.allocs += ALLOCS.load(Ordering::Relaxed) - before;
        }
    }
}

#[test]
fn steady_state_cls_miss_allocates_only_what_it_hands_off() {
    let cfg = ClsConfig::default();
    let EpisodicBackend::Exact(CapacityPolicy::Ring { capacity }) = cfg.episodic else {
        panic!("the default episodic store is the exact ring");
    };
    // An A-B-A phase trace, so that replay and the phase detector do
    // real work inside the window.
    let a = AppWorkload::PageRankLike.generate(20_000, 1);
    let b = AppWorkload::McfLike.generate(20_000, 2);
    let trace = phased::concat(&[a.clone(), b, a]);
    let sim = Simulator::new(SimConfig::default().sized_to(&trace, 0.5));
    let mut p = Metered {
        inner: ClsPrefetcher::new(cfg),
        capacity,
        misses: 0,
        allocs: 0,
    };
    sim.run(&trace, &mut p);

    assert!(
        p.misses >= 4_000,
        "only {} misses after the ring filled",
        p.misses
    );
    let per_miss = p.allocs as f64 / p.misses as f64;
    assert!(
        per_miss <= 4.0,
        "{} allocations over {} steady-state misses ({per_miss:.2} per miss)",
        p.allocs,
        p.misses
    );
}
