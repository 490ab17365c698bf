//! Wrappers that measure a layer from its public boundary.
//!
//! [`Clocked`] sits between the simulator and a prefetcher. Untraced,
//! it only clocks each miss from the simulator's `Miss` event to the
//! return of `on_miss` (the per-decision clock of the end-to-end run),
//! and only when asked to record; traced, it also opens a span around
//! `on_miss` and `on_event`, clocks `on_miss` alone and records the
//! missing pages. [`TracedObserver`] opens a span around one observer's
//! `on_event`.

use std::time::Instant;

use hnp_memsim::{MissEvent, PrefetchFeedback, Prefetcher};
use hnp_obs::{Event, Observer};

use crate::span::{SharedTracer, SpanId};

/// Span names of every traced run.
pub const SPANS: &[&str] = &[
    "memsim.run",
    "prefetcher.on_miss",
    "prefetcher.on_event",
    "obs.observer",
    "serve.run",
];
/// `Simulator::run`.
pub const RUN: SpanId = 0;
/// `Prefetcher::on_miss`.
pub const ON_MISS: SpanId = 1;
/// `Prefetcher::on_event`.
pub const ON_EVENT: SpanId = 2;
/// One attached observer's `on_event`.
pub const OBSERVER: SpanId = 3;
/// `ServeEngine::run`.
pub const SERVE_RUN: SpanId = 4;
/// Spans kept whole for the span log of a traced run.
pub const LOG_CAPACITY: usize = 1 << 16;
/// Full misses per chunk of a recorded run: about 0.1 ms of
/// `sim-baselines` and 4 ms of `cls-phased`.
pub const CHUNK_MISSES: u64 = 64;

fn elapsed_ns(from: Instant) -> u32 {
    u32::try_from(from.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// A prefetcher whose decisions are clocked from outside.
pub struct Clocked<'a> {
    inner: &'a mut dyn Prefetcher,
    tracer: Option<SharedTracer>,
    /// Host nanoseconds of each full miss, from its `Miss` event (which
    /// the simulator delivers before it evicts for the missing page) to
    /// the return of its `on_miss` call, in miss order (recorded runs
    /// only).
    pub miss_ns: Vec<u32>,
    /// Host nanoseconds of each `on_miss` call alone (traced runs only).
    pub on_miss_ns: Vec<u32>,
    /// The page of each miss (traced runs only).
    pub miss_pages: Vec<u64>,
    /// Candidates returned by `on_miss`, summed.
    pub candidates: u64,
    /// `on_miss` calls that returned any candidate.
    pub issuing: u64,
    /// `on_miss` calls.
    pub misses: u64,
    /// Host nanoseconds of consecutive chunks of the run, cut before
    /// every [`CHUNK_MISSES`]-th full miss (recorded runs only).
    pub chunk_ns: Vec<u64>,
    /// `miss_ns.len()` at the end of each chunk.
    pub chunk_end: Vec<usize>,
    record: bool,
    /// The last full miss's `Miss` event.
    mark: Instant,
    /// The start of the open chunk.
    chunk_start: Instant,
}

impl<'a> Clocked<'a> {
    /// Wraps `inner` for a run of at most `accesses` accesses, keeping
    /// `miss_ns` when `record` is set. Sample storage is reserved up
    /// front so that recording never allocates inside a measured span.
    pub fn new(
        inner: &'a mut dyn Prefetcher,
        tracer: Option<SharedTracer>,
        accesses: usize,
        record: bool,
    ) -> Self {
        let traced = if tracer.is_some() { accesses } else { 0 };
        let chunks = if record {
            accesses / CHUNK_MISSES as usize + 2
        } else {
            0
        };
        Self {
            inner,
            tracer,
            miss_ns: Vec::with_capacity(if record { accesses } else { 0 }),
            on_miss_ns: Vec::with_capacity(traced),
            miss_pages: Vec::with_capacity(traced),
            candidates: 0,
            issuing: 0,
            misses: 0,
            chunk_ns: Vec::with_capacity(chunks),
            chunk_end: Vec::with_capacity(chunks),
            record,
            mark: Instant::now(),
            chunk_start: Instant::now(),
        }
    }

    /// Marks the start of the run.
    pub fn start(&mut self) {
        self.chunk_start = Instant::now();
    }

    /// Closes the last chunk at the end of the run.
    pub fn finish(&mut self) {
        self.close_chunk(Instant::now());
    }

    fn close_chunk(&mut self, now: Instant) {
        if self.record {
            self.chunk_ns
                .push((now - self.chunk_start).as_nanos() as u64);
            self.chunk_end.push(self.miss_ns.len());
            self.chunk_start = now;
        }
    }
}

impl Prefetcher for Clocked<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_miss(&mut self, miss: &MissEvent) -> Vec<u64> {
        let out = match &self.tracer {
            None => self.inner.on_miss(miss),
            Some(t) => {
                t.borrow_mut().open(ON_MISS, self.misses);
                let t0 = Instant::now();
                let out = self.inner.on_miss(miss);
                self.on_miss_ns.push(elapsed_ns(t0));
                t.borrow_mut().close();
                self.miss_pages.push(miss.page);
                out
            }
        };
        if self.record {
            self.miss_ns.push(elapsed_ns(self.mark));
        }
        self.misses += 1;
        self.candidates += out.len() as u64;
        self.issuing += u64::from(!out.is_empty());
        out
    }

    fn on_hit(&mut self, page: u64, tick: u64) {
        self.inner.on_hit(page, tick);
    }

    fn on_feedback(&mut self, feedback: &PrefetchFeedback) {
        self.inner.on_feedback(feedback);
    }

    fn reset_state(&mut self) {
        self.inner.reset_state();
    }

    fn on_fault(&mut self, tick: u64) {
        self.inner.on_fault(tick);
    }

    fn on_event(&mut self, ev: &Event) {
        // A full miss: the simulator calls `on_miss` for it later in the
        // same access. Late misses get no `on_miss`.
        if let Event::Miss { late: false, .. } = ev {
            self.mark = Instant::now();
            if self.misses > 0 && self.misses.is_multiple_of(CHUNK_MISSES) {
                self.close_chunk(self.mark);
            }
        }
        match &self.tracer {
            None => self.inner.on_event(ev),
            Some(t) => {
                t.borrow_mut().open(ON_EVENT, self.misses);
                self.inner.on_event(ev);
                t.borrow_mut().close();
            }
        }
    }
}

/// An observer whose every call is a span.
pub struct TracedObserver<O> {
    inner: O,
    tracer: SharedTracer,
    seq: u64,
}

impl<O> TracedObserver<O> {
    /// Wraps `inner`; spans carry the observer's event sequence number
    /// as their request id.
    pub fn new(inner: O, tracer: SharedTracer) -> Self {
        Self {
            inner,
            tracer,
            seq: 0,
        }
    }
}

impl<O: Observer> Observer for TracedObserver<O> {
    fn on_event(&mut self, ev: &Event) {
        self.tracer.borrow_mut().open(OBSERVER, self.seq);
        self.inner.on_event(ev);
        self.tracer.borrow_mut().close();
        self.seq += 1;
    }
}

/// Attaches `obs` to `reg`, behind a span when a tracer is given.
pub fn attach<O: Observer + 'static>(
    reg: &hnp_obs::Registry,
    obs: O,
    tracer: Option<&SharedTracer>,
) {
    match tracer {
        Some(t) => reg.attach(TracedObserver::new(obs, t.clone())),
        None => reg.attach(obs),
    }
}
