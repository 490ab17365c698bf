//! Obviously-correct references for the simulator's bookkeeping, and
//! the differential proptests that hold the optimized code to them.
//!
//! [`RefMemory`] finds pages by scanning a `Vec` of slots and picks
//! victims by scanning too (LRU: oldest use stamp; FIFO: oldest insert
//! stamp; CLOCK: the hand sweep over slots; random: a swap-remove page
//! vector drawn with the same seeded RNG). It reuses freed slots in the
//! same LIFO order as the page table, evicts before it allocates, and
//! flushes in ascending page order. [`ref_run`] is the run loop with
//! that memory and a linear in-flight list that lands due pages in
//! ascending page order. The optimized [`LocalMemory`] and
//! [`Simulator`] must agree with them exactly: same victims, metadata,
//! reports and event streams.
//!
//! The whole module is `#[cfg(test)]` (declared so in `lib.rs`).

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hnp_obs::{Event, FeedbackKind, Observer, Registry};
use hnp_trace::Trace;

use crate::evict::EvictionPolicy;
use crate::memory::{LocalMemory, PageMeta};
use crate::prefetcher::{MissEvent, NoPrefetcher, Prefetcher};
use crate::sim::{SimConfig, SimReport, Simulator};

#[derive(Debug, Clone, Copy)]
struct RefPage {
    page: u64,
    meta: PageMeta,
    inserted: u64,
    used: u64,
    referenced: bool,
}

/// The reference memory.
pub(crate) struct RefMemory {
    capacity: usize,
    policy: EvictionPolicy,
    slots: Vec<Option<RefPage>>,
    free: Vec<usize>,
    hand: usize,
    stamp: u64,
    random: Vec<u64>,
    rng: StdRng,
}

impl RefMemory {
    pub(crate) fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        let seed = match policy {
            EvictionPolicy::Random(seed) => seed,
            _ => 0,
        };
        Self {
            capacity,
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
            stamp: 0,
            random: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn find(&self, page: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| matches!(s, Some(e) if e.page == page))
    }

    fn live(&self) -> impl Iterator<Item = (usize, &RefPage)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i, e)))
    }

    pub(crate) fn len(&self) -> usize {
        self.live().count()
    }

    pub(crate) fn meta(&self, page: u64) -> Option<PageMeta> {
        self.find(page).and_then(|i| self.slots[i]).map(|e| e.meta)
    }

    /// A demand access; returns the metadata before it.
    pub(crate) fn touch(&mut self, page: u64) -> Option<PageMeta> {
        let i = self.find(page)?;
        self.stamp += 1;
        let stamp = self.stamp;
        let e = self.slots[i].as_mut()?;
        let before = e.meta;
        e.meta.touched = true;
        e.used = stamp;
        e.referenced = true;
        Some(before)
    }

    pub(crate) fn insert(&mut self, page: u64, meta: PageMeta) -> Option<(u64, PageMeta)> {
        if self.find(page).is_some() {
            return None;
        }
        let evicted = if self.len() >= self.capacity {
            let victim = self.victim();
            self.release(victim).map(|e| (e.page, e.meta))
        } else {
            None
        };
        self.stamp += 1;
        let entry = Some(RefPage {
            page,
            meta,
            inserted: self.stamp,
            used: self.stamp,
            referenced: true,
        });
        match self.free.pop() {
            Some(i) => self.slots[i] = entry,
            None => self.slots.push(entry),
        }
        self.random.push(page);
        evicted
    }

    fn victim(&mut self) -> usize {
        match self.policy {
            EvictionPolicy::Lru => self.live().min_by_key(|(_, e)| e.used).map_or(0, |v| v.0),
            EvictionPolicy::Fifo => self
                .live()
                .min_by_key(|(_, e)| e.inserted)
                .map_or(0, |v| v.0),
            EvictionPolicy::Clock => loop {
                if self.hand >= self.slots.len() {
                    self.hand = 0;
                }
                let h = self.hand;
                self.hand += 1;
                if let Some(e) = &mut self.slots[h] {
                    if e.referenced {
                        e.referenced = false;
                    } else {
                        return h;
                    }
                }
            },
            EvictionPolicy::Random(_) => {
                let i = self.rng.gen_range(0..self.random.len());
                let page = self.random[i];
                self.find(page).unwrap_or(0)
            }
        }
    }

    fn release(&mut self, slot: usize) -> Option<RefPage> {
        let e = self.slots[slot].take()?;
        self.free.push(slot);
        if let Some(i) = self.random.iter().position(|&p| p == e.page) {
            self.random.swap_remove(i);
        }
        Some(e)
    }

    pub(crate) fn invalidate(&mut self, page: u64) -> Option<PageMeta> {
        let i = self.find(page)?;
        self.release(i).map(|e| e.meta)
    }

    pub(crate) fn flush(&mut self) {
        let mut pages: Vec<u64> = self.live().map(|(_, e)| e.page).collect();
        pages.sort_unstable();
        for p in pages {
            self.invalidate(p);
        }
    }
}

fn dispatch(obs: &Registry, report: &mut SimReport, prefetcher: &mut dyn Prefetcher, ev: Event) {
    report.apply(&ev);
    prefetcher.on_event(&ev);
    obs.emit(&ev);
}

fn ref_insert(
    obs: &Registry,
    memory: &mut RefMemory,
    report: &mut SimReport,
    prefetcher: &mut dyn Prefetcher,
    page: u64,
    prefetched: bool,
    now: u64,
) {
    let meta = PageMeta {
        prefetched,
        touched: false,
        arrived: now,
    };
    if let Some((victim, old)) = memory.insert(page, meta) {
        if old.prefetched && !old.touched {
            let ev = Event::Feedback {
                tick: now,
                page: victim,
                kind: FeedbackKind::Unused,
                remaining: 0,
            };
            dispatch(obs, report, prefetcher, ev);
        }
    }
}

/// The reference run loop (no checkpoints).
pub(crate) fn ref_run(
    cfg: &SimConfig,
    trace: &Trace,
    prefetcher: &mut dyn Prefetcher,
) -> SimReport {
    let obs = &cfg.obs;
    let mut memory = RefMemory::new(cfg.capacity_pages, cfg.eviction);
    let mut inflight: Vec<(u64, u64)> = Vec::new();
    let mut now = 0u64;
    let mut report = SimReport {
        prefetcher: prefetcher.name().to_string(),
        accesses: 0,
        hits: 0,
        full_misses: 0,
        late_prefetch_hits: 0,
        prefetches_issued: 0,
        prefetches_dropped: 0,
        prefetches_useful: 0,
        prefetches_unused: 0,
        total_ticks: 0,
    };
    for access in trace.accesses() {
        let page = access.page(trace.page_shift());
        now += 1;
        let mut arrived: Vec<u64> = inflight
            .iter()
            .filter(|&&(_, t)| t <= now)
            .map(|&(p, _)| p)
            .collect();
        arrived.sort_unstable();
        inflight.retain(|&(_, t)| t > now);
        for p in arrived {
            ref_insert(obs, &mut memory, &mut report, prefetcher, p, true, now);
        }
        let r = &mut report;
        if let Some(before) = memory.touch(page) {
            if before.prefetched && !before.touched {
                let ev = Event::Feedback {
                    tick: now,
                    page,
                    kind: FeedbackKind::Useful,
                    remaining: 0,
                };
                dispatch(obs, r, prefetcher, ev);
            }
            dispatch(obs, r, prefetcher, Event::Hit { tick: now, page });
            continue;
        }
        if let Some(i) = inflight.iter().position(|&(p, _)| p == page) {
            let (_, arrival) = inflight.remove(i);
            let remaining = arrival.saturating_sub(now);
            let tick = now;
            now += remaining;
            let miss = Event::Miss {
                tick,
                page,
                late: true,
                stall: remaining,
            };
            dispatch(obs, r, prefetcher, miss);
            let late = Event::Feedback {
                tick,
                page,
                kind: FeedbackKind::Late,
                remaining,
            };
            dispatch(obs, r, prefetcher, late);
            ref_insert(obs, &mut memory, r, prefetcher, page, true, now);
            memory.touch(page);
            continue;
        }
        let start = now;
        now += cfg.miss_latency;
        let miss = Event::Miss {
            tick: start,
            page,
            late: false,
            stall: cfg.miss_latency,
        };
        dispatch(obs, r, prefetcher, miss);
        ref_insert(obs, &mut memory, r, prefetcher, page, false, now);
        memory.touch(page);
        let candidates = prefetcher.on_miss(&MissEvent {
            page,
            tick: start,
            stream: access.stream,
        });
        let arrival = start + cfg.inference_latency + cfg.prefetch_latency;
        let mut accepted = 0;
        for cand in candidates {
            if accepted >= cfg.max_issue_per_miss {
                break;
            }
            if memory.find(cand).is_some() || inflight.iter().any(|&(p, _)| p == cand) {
                continue;
            }
            let tick = start;
            if inflight.len() >= cfg.max_inflight {
                let ev = Event::PrefetchDropped { tick, page: cand };
                dispatch(obs, r, prefetcher, ev);
                continue;
            }
            inflight.push((cand, arrival));
            let ev = Event::PrefetchIssued {
                tick,
                page: cand,
                arrival,
            };
            dispatch(obs, r, prefetcher, ev);
            accepted += 1;
        }
    }
    let end = Event::RunEnd {
        ticks: now,
        accesses: report.accesses as u64,
        hits: report.hits as u64,
        misses: report.misses() as u64,
    };
    dispatch(obs, &mut report, prefetcher, end);
    report
}

/// Records every event of a run.
#[derive(Clone, Default)]
struct Recorder(Rc<RefCell<Vec<Event>>>);

impl Observer for Recorder {
    fn on_event(&mut self, ev: &Event) {
        self.0.borrow_mut().push(ev.clone());
    }
}

/// Prefetches the next two pages.
struct NextLineOracle;

impl Prefetcher for NextLineOracle {
    fn name(&self) -> &str {
        "next-line-oracle"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        vec![miss.page + 1, miss.page + 2]
    }
}

/// Prefetches a page far from anything the trace touches.
struct Polluter;

impl Prefetcher for Polluter {
    fn name(&self) -> &str {
        "polluter"
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        vec![miss.page + 100_000]
    }
}

fn prefetcher(kind: usize) -> Box<dyn Prefetcher> {
    match kind {
        0 => Box::new(NoPrefetcher),
        1 => Box::new(NextLineOracle),
        _ => Box::new(Polluter),
    }
}

fn policy(kind: usize, seed: u64) -> EvictionPolicy {
    match kind {
        0 => EvictionPolicy::Lru,
        1 => EvictionPolicy::Fifo,
        2 => EvictionPolicy::Clock,
        _ => EvictionPolicy::Random(seed),
    }
}

/// A trace mixing sequential runs (`true`: previous page + 1) with
/// jumps, over a small page range so that pages recur.
fn trace_of(steps: &[(bool, u64)]) -> Trace {
    let mut page = 0u64;
    let addrs = steps
        .iter()
        .map(|&(seq, jump)| {
            page = if seq { page + 1 } else { jump };
            page << hnp_trace::PAGE_SHIFT
        })
        .collect();
    Trace::from_addrs(addrs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The optimized run loop and the reference agree on the report
    /// and on every event, in order.
    #[test]
    fn simulator_matches_reference(
        steps in proptest::collection::vec((any::<bool>(), 0u64..40), 0..300),
        policy_kind in 0usize..4,
        seed in any::<u64>(),
        model in 0usize..3,
        capacity in 1usize..12,
        max_inflight in 0usize..6,
        max_issue in 0usize..4,
        miss_latency in 1u64..60,
        prefetch_latency in 0u64..80,
        inference_latency in 0u64..20,
    ) {
        let trace = trace_of(&steps);
        let cfg = SimConfig {
            capacity_pages: capacity,
            eviction: policy(policy_kind, seed),
            miss_latency,
            prefetch_latency,
            inference_latency,
            max_inflight,
            max_issue_per_miss: max_issue,
            obs: Registry::new(),
        };
        let (fast_events, slow_events) = (Recorder::default(), Recorder::default());
        let fast_obs = Registry::new();
        fast_obs.attach(fast_events.clone());
        let slow_obs = Registry::new();
        slow_obs.attach(slow_events.clone());
        let fast = Simulator::new(cfg.clone().with_observer(fast_obs))
            .run(&trace, prefetcher(model).as_mut());
        let slow = ref_run(&cfg.with_observer(slow_obs), &trace, prefetcher(model).as_mut());
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(&*fast_events.0.borrow(), &*slow_events.0.borrow());
    }

    /// `LocalMemory` and the reference agree on every victim, every
    /// returned metadata and the resident set after each operation.
    #[test]
    fn memory_matches_reference(
        policy_kind in 0usize..4,
        seed in any::<u64>(),
        capacity in 1usize..10,
        ops in proptest::collection::vec((0u8..13, 0u64..24, any::<bool>()), 0..200),
    ) {
        let policy = policy(policy_kind, seed);
        let mut fast = LocalMemory::new(capacity, policy);
        let mut slow = RefMemory::new(capacity, policy);
        // Op weights: insert 6, touch 4, invalidate 2, flush 1.
        for (now, (op, page, prefetched)) in ops.into_iter().enumerate() {
            match op {
                0..=5 => {
                    let meta = PageMeta { prefetched, touched: false, arrived: now as u64 };
                    prop_assert_eq!(fast.insert(page, prefetched, now as u64), slow.insert(page, meta));
                }
                6..=9 => prop_assert_eq!(fast.access(page), slow.touch(page)),
                10 | 11 => prop_assert_eq!(fast.invalidate(page), slow.invalidate(page)),
                _ => {
                    fast.flush();
                    slow.flush();
                }
            }
            prop_assert_eq!(fast.len(), slow.len());
            for page in 0u64..24 {
                prop_assert_eq!(fast.meta(page).copied(), slow.meta(page));
            }
        }
    }
}
