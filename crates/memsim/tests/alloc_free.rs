//! Allocation accounting for the simulator's per-access bookkeeping.
//!
//! `Simulator::run` sizes its page table, evictor state and in-flight
//! set once, up front. A run with no prefetcher must therefore make the
//! same number of heap allocations however long the trace is: a
//! counting global allocator compares a 10k-access run with a
//! 40k-access run under every eviction policy.
//!
//! Single `#[test]` in this file: the counter is process-global, and
//! a concurrently running test could otherwise attribute its
//! allocations to the window under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hnp_memsim::{EvictionPolicy, NoPrefetcher, SimConfig, Simulator};
use hnp_trace::Trace;

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

/// A trace over 4096 pages (xorshift-scattered), eight times the
/// memory, so that every policy evicts throughout.
fn trace(accesses: usize) -> Trace {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let addrs = (0..accesses)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 4096) << hnp_trace::PAGE_SHIFT
        })
        .collect();
    Trace::from_addrs(addrs)
}

fn allocs_of_run(sim: &Simulator, trace: &Trace) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = sim.run(trace, &mut NoPrefetcher);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.accesses, trace.len());
    assert!(
        report.full_misses > trace.len() / 2,
        "the memory must churn"
    );
    after - before
}

#[test]
fn run_allocations_do_not_grow_with_the_trace() {
    let (short, long) = (trace(10_000), trace(40_000));
    for policy in [
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
        EvictionPolicy::Clock,
        EvictionPolicy::Random(7),
    ] {
        let sim = Simulator::new(
            SimConfig::default()
                .with_capacity_pages(512)
                .with_eviction(policy),
        );
        let (a, b) = (allocs_of_run(&sim, &short), allocs_of_run(&sim, &long));
        assert_eq!(
            a, b,
            "{policy:?}: {a} allocations over 10k accesses but {b} over 40k"
        );
    }
}
