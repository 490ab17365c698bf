//! The `serve-mix` workload: `ServeEngine::run` over a 16-tenant mix.
//!
//! The engine takes the whole request slice up front and ingests a
//! fixed batch per epoch, starting the next epoch only after the worker
//! barrier (a closed loop). Request latency is measured by an observer
//! that stamps each `ServeEnqueue` and pairs each shard's FIFO of stamps
//! with the `processed` count of that shard's `ShardEpoch` event.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use hnp_obs::{Event, Observer, Registry};
use hnp_serve::{
    decode, encode, synthesize, ModelKind, PrefetcherFactory, ServeConfig, ServeEngine,
    ServeOutcome, TenantRegistry, TenantSpec,
};
use hnp_trace::apps::AppWorkload;

use crate::span::Tracer;
use crate::stats::{median, quantile_ns, ratio};
use crate::wrap::{attach, LOG_CAPACITY, OBSERVER, SERVE_RUN, SPANS};
use crate::{Carried, Component, Metric, Options, Pass, Sizes, Timings};

/// The `hnpctl serve-bench --model mix` registry: models and loads
/// assigned round-robin by tenant id.
const MIX: [ModelKind; 5] = [
    ModelKind::Hebbian,
    ModelKind::Cls,
    ModelKind::Stride,
    ModelKind::Markov,
    ModelKind::NextN,
];
const LOADS: [AppWorkload; 5] = [
    AppWorkload::McfLike,
    AppWorkload::TensorFlowLike,
    AppWorkload::PageRankLike,
    AppWorkload::Graph500Like,
    AppWorkload::KvStoreLike,
];
/// Tenants that crash: 1 is CLS and 5 is Hebbian under [`MIX`], so both
/// warm-start from a snapshot.
const CRASHED: [u64; 2] = [1, 5];
const SHARDS: usize = 8;
/// Shard queue capacity. At the offered load of [`config`] bursts back
/// up for several epochs; the program's default depth of 64 sheds
/// 15–235 requests of 64,000 on seeds 1–20, and 1024 sheds none, so no
/// operation fails.
const QUEUE_DEPTH: usize = 1024;
/// One worker thread. With two on the 2-vCPU host the benchmark was
/// tuned on, the main thread and both workers share two vCPUs, and
/// whole runs read about half speed now and then (see `README.md`).
/// One worker still runs the dispatch, the barrier and the
/// shard-ordered merge.
const WORKERS: usize = 1;

fn registry(seed: u64, tenants: u64) -> TenantRegistry {
    let mut reg = TenantRegistry::new();
    for id in 0..tenants {
        reg.register(TenantSpec {
            id,
            model: MIX[(id % 5) as usize],
            workload: LOADS[(id % 5) as usize],
            seed: seed.wrapping_add(id),
        });
    }
    reg
}

/// The program's batch of 32 requests per shard per epoch
/// (`ServeConfig::default`, as in `hnpctl serve-bench`), with an offered
/// load of ¾ of the `shards × batch` = 256 the engine drains per epoch.
/// At the full 256 the busiest shards fall behind and request latency
/// becomes a whole number of epochs that changes with the seed (median
/// 1 or 2 epochs waited, p99 6 to 9, on seeds 11–20), so the latency
/// percentiles would move by up to 2× from seed to seed. At 192 fewer
/// than 1% of the requests wait for a later epoch.
fn config(sizes: &Sizes, requests: usize, obs: Registry) -> ServeConfig {
    let batch = ServeConfig::default().flush_per_shard;
    let ingest = SHARDS * batch * 3 / 4;
    let epochs = requests.div_ceil(ingest) as u64;
    ServeConfig {
        shards: SHARDS,
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        flush_per_shard: batch,
        ingest_per_epoch: ingest,
        snapshot_interval: sizes.snapshot_interval,
        // The program's default placement, the same for every seed, so
        // that which models share a shard does not change with the seed.
        hash_seed: ServeConfig::default().hash_seed,
        crashes: vec![(epochs / 3, CRASHED[0]), (2 * epochs / 3, CRASHED[1])],
        pred_window: 64,
        pred_horizon: 256,
        obs,
    }
}

const ENQUEUE: u8 = 0;
const FLUSH: u8 = 1;
const SHARD_EPOCH: u8 = 2;

/// One timestamped serve event (traced runs).
#[derive(Clone, Copy)]
struct Stamp {
    kind: u8,
    epoch: u64,
    value: u64,
    t_ns: u64,
}

struct ClockData {
    origin: Instant,
    record: bool,
    /// When `ServeEngine::run` was called.
    run_start: u64,
    /// Per shard, the enqueue time and epoch of each queued request.
    pending: Vec<VecDeque<(u64, u64)>>,
    /// Each processed request's time in the epoch that processed it, in
    /// processing order (recorded runs only).
    latency_ns: Vec<u32>,
    /// The requests that waited across epochs (recorded runs only).
    carried: Vec<Carried>,
    /// Time of each epoch's last `ShardEpoch` event, in epoch order.
    epoch_end: Vec<u64>,
    /// `latency_ns.len()` at each epoch's last `ShardEpoch` event.
    epoch_done: Vec<usize>,
    stamps: Option<Vec<Stamp>>,
}

/// The enqueue/epoch observer; traced, it also keeps every stamp.
#[derive(Clone)]
struct ServeClock(Rc<RefCell<ClockData>>);

impl ServeClock {
    /// A clock for `requests` requests that keeps their latencies when
    /// `record` is set and every stamp when `traced` is.
    fn new(requests: usize, record: bool, traced: bool) -> Self {
        Self(Rc::new(RefCell::new(ClockData {
            origin: Instant::now(),
            record,
            run_start: 0,
            pending: vec![VecDeque::new(); SHARDS],
            latency_ns: Vec::with_capacity(if record { requests } else { 0 }),
            carried: Vec::new(),
            epoch_end: Vec::new(),
            epoch_done: Vec::new(),
            stamps: traced.then(|| Vec::with_capacity(2 * requests)),
        })))
    }

    fn now_ns(d: &ClockData) -> u64 {
        d.origin.elapsed().as_nanos() as u64
    }

    fn now(&self) -> u64 {
        Self::now_ns(&self.0.borrow())
    }

    /// Marks the call of `ServeEngine::run`.
    fn start(&self) -> u64 {
        let mut d = self.0.borrow_mut();
        d.run_start = Self::now_ns(&d);
        d.run_start
    }

    /// Host nanoseconds of consecutive segments from `start` to `end`
    /// split at each epoch's end.
    fn segments(&self, start: u64, end: u64) -> Vec<u32> {
        let d = self.0.borrow();
        let marks: Vec<u64> = std::iter::once(start)
            .chain(d.epoch_end.iter().copied())
            .chain(std::iter::once(end))
            .collect();
        marks
            .windows(2)
            .map(|w| u32::try_from(w[1].saturating_sub(w[0])).unwrap_or(u32::MAX))
            .collect()
    }
}

impl Observer for ServeClock {
    fn on_event(&mut self, ev: &Event) {
        let mut d = self.0.borrow_mut();
        let t_ns = Self::now_ns(&d);
        let (kind, epoch, value) = match *ev {
            Event::ServeEnqueue {
                epoch,
                shard,
                depth,
                ..
            } => {
                if let Some(q) = d.pending.get_mut(shard as usize) {
                    q.push_back((t_ns, epoch));
                }
                (ENQUEUE, epoch, depth)
            }
            Event::ServeFlush { epoch, batch, .. } => (FLUSH, epoch, batch),
            Event::ShardEpoch {
                epoch,
                shard,
                processed,
                ..
            } => {
                // Epochs count from 1; chunk `e - 1` of the run is epoch
                // `e`, and it starts where epoch `e - 1` ended.
                let chunk = epoch.saturating_sub(1) as usize;
                let chunk_start = match chunk {
                    0 => d.run_start,
                    c => d.epoch_end.get(c - 1).copied().unwrap_or(d.run_start),
                };
                for _ in 0..processed {
                    let Some((t, arrived)) = d
                        .pending
                        .get_mut(shard as usize)
                        .and_then(VecDeque::pop_front)
                    else {
                        break;
                    };
                    if !d.record {
                        continue;
                    }
                    let first = arrived.saturating_sub(1) as usize;
                    let ns = if first < chunk {
                        let head = d.epoch_end.get(first).map_or(0, |&e| e - t);
                        let decision = d.latency_ns.len();
                        d.carried.push(Carried {
                            decision,
                            first,
                            head_ns: u32::try_from(head).unwrap_or(u32::MAX),
                        });
                        t_ns - chunk_start
                    } else {
                        t_ns - t
                    };
                    d.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                }
                if d.epoch_end.len() as u64 == epoch {
                    d.epoch_end.pop();
                    d.epoch_done.pop();
                }
                d.epoch_end.push(t_ns);
                let done = d.latency_ns.len();
                d.epoch_done.push(done);
                (SHARD_EPOCH, epoch, processed)
            }
            _ => return,
        };
        if let Some(s) = &mut d.stamps {
            s.push(Stamp {
                kind,
                epoch,
                value,
                t_ns,
            });
        }
    }
}

struct ServePass {
    setup_s: f64,
    gen_ns: u64,
    wall_ns: u64,
    segment_ns: Vec<u32>,
    requests: usize,
    outcome: ServeOutcome,
    clock: ServeClock,
    observer: crate::span::Totals,
    failures: Vec<String>,
}

fn serve_pass(
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    record: bool,
    span_log: Option<&std::path::Path>,
) -> ServePass {
    let t_setup = Instant::now();
    let reg = registry(seed, sizes.tenants);
    let requests = synthesize(&reg, sizes.per_tenant, seed);
    let gen_ns = t_setup.elapsed().as_nanos() as u64;
    let tracer = traced.then(|| Tracer::shared(SPANS, LOG_CAPACITY));
    let clock = ServeClock::new(requests.len(), record, traced);
    let obs = Registry::new();
    attach(&obs, clock.clone(), tracer.as_ref());
    let engine = ServeEngine::new(
        config(sizes, requests.len(), obs),
        reg,
        PrefetcherFactory::new(),
    );
    let setup_s = t_setup.elapsed().as_secs_f64();

    crate::alloc::set_counting(traced);
    let t0 = Instant::now();
    if let Some(t) = &tracer {
        t.borrow_mut().open(SERVE_RUN, 0);
    }
    let start = clock.start();
    let outcome = engine.run(&requests);
    let end = clock.now();
    if let Some(t) = &tracer {
        t.borrow_mut().close();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let segment_ns = clock.segments(start, end);
    crate::alloc::set_counting(false);
    drop(engine);

    let r = &outcome.report;
    let mut failures = Vec::new();
    if r.admitted + r.shed != r.offered || r.offered != requests.len() as u64 {
        failures.push(format!(
            "admitted {} + shed {} != offered {} ({} requests)",
            r.admitted,
            r.shed,
            r.offered,
            requests.len()
        ));
    }
    if r.processed != r.admitted {
        failures.push(format!(
            "processed {} != admitted {}",
            r.processed, r.admitted
        ));
    }
    let samples = clock.0.borrow().latency_ns.len() as u64;
    if record && samples != r.processed {
        failures.push(format!(
            "{samples} latency samples for {} processed requests",
            r.processed
        ));
    }
    let observer = match &tracer {
        Some(t) => {
            let t = t.borrow();
            if let Some(path) = span_log {
                if let Err(e) = t.write_log(path) {
                    eprintln!("warning: cannot write span log {}: {e}", path.display());
                }
            }
            t.totals(OBSERVER)
        }
        None => Default::default(),
    };
    ServePass {
        setup_s,
        gen_ns,
        wall_ns,
        segment_ns,
        requests: requests.len(),
        outcome,
        clock,
        observer,
        failures,
    }
}

fn fingerprint(p: &ServePass) -> String {
    format!("{:?} {:?}", p.outcome.report, p.outcome.archive)
}

/// The deterministic end-to-end metrics of an untraced pass.
fn end_to_end(p: &ServePass) -> Vec<Metric> {
    let r = &p.outcome.report;
    let covered: u64 = r.tenants.iter().map(|t| t.covered).sum();
    let issued: u64 = r.tenants.iter().map(|t| t.issued).sum();
    vec![
        Metric::exact(
            "coverage_milli",
            "milli",
            ratio(covered as f64, r.processed as f64, 1e3),
        ),
        Metric::exact(
            "accuracy_milli",
            "milli",
            ratio(covered as f64, issued as f64, 1e3),
        ),
    ]
}

/// The raw timings of an untraced pass that recorded them. The chunks
/// are the epochs, then the close of the run after the last one; each
/// epoch ends the latencies of the requests it processed, and a request
/// that waited across epochs is carried from the epoch it arrived in.
fn timings(p: &ServePass) -> Timings {
    let mut d = p.clock.0.borrow_mut();
    let decision_ns = std::mem::take(&mut d.latency_ns);
    let carried = std::mem::take(&mut d.carried);
    let mut chunk_end = std::mem::take(&mut d.epoch_done);
    chunk_end.push(decision_ns.len());
    Timings {
        setup_s: p.setup_s,
        components: vec![Component {
            ops: p.outcome.report.processed,
            chunk_ns: p.segment_ns.iter().map(|&ns| u64::from(ns)).collect(),
            decision_ns,
            chunk_end,
            carried,
        }],
    }
}

/// Host nanoseconds per KiB to decode and re-encode the run's archive,
/// median of five rounds; a blob that does not re-encode to itself is
/// a failure.
fn codec_ns_per_kib(p: &ServePass, failures: &mut Vec<String>) -> (f64, f64) {
    let bytes: usize = p.outcome.archive.values().map(Vec::len).sum();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut e_ns, mut d_ns) = (0u64, 0u64);
        for (&tenant, blob) in &p.outcome.archive {
            let t0 = Instant::now();
            let snap = match decode(std::hint::black_box(blob)) {
                Ok(s) => s,
                Err(e) => {
                    failures.push(format!("tenant {tenant}: snapshot does not decode: {e:?}"));
                    continue;
                }
            };
            let t1 = Instant::now();
            let again = encode(snap.tenant, snap.kind, std::hint::black_box(&snap.state));
            let t2 = Instant::now();
            d_ns += (t1 - t0).as_nanos() as u64;
            e_ns += (t2 - t1).as_nanos() as u64;
            if &again != blob {
                failures.push(format!(
                    "tenant {tenant}: snapshot does not re-encode to itself"
                ));
            }
        }
        enc.push(e_ns as f64);
        dec.push(d_ns as f64);
    }
    let kib = bytes as f64 / 1024.0;
    (ratio(median(&enc), kib, 1.0), ratio(median(&dec), kib, 1.0))
}

/// The `hnp-serve` metrics, zero on workloads without the engine.
pub fn absent() -> Vec<Metric> {
    serve_layers(&[], &[], 0.0, 0.0, 0.0, 0.0, (0.0, 0.0))
}

/// `epoch_ns` holds each epoch's duration, from the end of the previous
/// epoch (or the start of the run) to its last `ShardEpoch` event.
fn serve_layers(
    epoch_ns: &[u32],
    stamps: &[Stamp],
    shed_milli: f64,
    snapshots: f64,
    restores: f64,
    snapshot_bytes: f64,
    (enc, dec): (f64, f64),
) -> Vec<Metric> {
    let mut last_flush = vec![None; epoch_ns.len() + 1];
    let mut first_done = vec![None; epoch_ns.len() + 1];
    let (mut batches, mut flushes) = (0u64, 0u64);
    let mut depths = Vec::new();
    for s in stamps {
        let e = s.epoch as usize;
        match s.kind {
            ENQUEUE => depths.push(u32::try_from(s.value).unwrap_or(u32::MAX)),
            FLUSH => {
                if let Some(f) = last_flush.get_mut(e) {
                    *f = Some(s.t_ns);
                }
                batches += s.value;
                flushes += 1;
            }
            _ => {
                if let Some(d) = first_done.get_mut(e) {
                    d.get_or_insert(s.t_ns);
                }
            }
        }
    }
    // The worker window runs from an epoch's last flush to its first
    // `ShardEpoch`: dispatch, worker compute and the barrier.
    let worker_ns: u64 = last_flush
        .iter()
        .zip(&first_done)
        .filter_map(|(&flush, &done)| Some(done?.saturating_sub(flush?)))
        .sum();
    let total_ns: u64 = epoch_ns.iter().map(|&e| u64::from(e)).sum();
    let n = epoch_ns.len() as f64;
    let mut epochs = epoch_ns.to_vec();
    vec![
        Metric::time("serve.epoch_ns_p50", "ns", quantile_ns(&mut epochs, 0.50)),
        Metric::time("serve.epoch_ns_p99", "ns", quantile_ns(&mut epochs, 0.99)),
        Metric::time(
            "serve.main_ns_per_epoch",
            "ns",
            ratio(total_ns.saturating_sub(worker_ns) as f64, n, 1.0),
        ),
        Metric::time(
            "serve.worker_ns_per_epoch",
            "ns",
            ratio(worker_ns as f64, n, 1.0),
        ),
        Metric::exact(
            "serve.batch_mean",
            "count",
            ratio(batches as f64, flushes as f64, 1.0),
        ),
        Metric::exact(
            "serve.queue_depth_p99",
            "count",
            quantile_ns(&mut depths, 0.99),
        ),
        Metric::exact("serve.shed_milli", "milli", shed_milli),
        Metric::exact("serve.snapshots", "count", snapshots),
        Metric::exact("serve.restores", "count", restores),
        Metric::exact("serve.snapshot_bytes", "B", snapshot_bytes),
        Metric::time("serve.snapshot_encode_ns_per_kb", "ns", enc),
        Metric::time("serve.snapshot_decode_ns_per_kb", "ns", dec),
    ]
}

fn per_layer(u: &ServePass, t: &ServePass, failures: &mut Vec<String>) -> Vec<Metric> {
    let r = &t.outcome.report;
    let requests = t.requests as f64;
    let mut m = vec![
        Metric::time(
            "trace.gen_ns_per_access",
            "ns",
            ratio(t.gen_ns as f64, requests, 1.0),
        ),
        Metric::time(
            "trace.overhead_milli",
            "milli",
            ratio(t.wall_ns as f64 - u.wall_ns as f64, u.wall_ns as f64, 1e3),
        ),
    ];
    m.extend(crate::sim::absent());
    m.push(Metric::exact(
        "obs.events_per_access",
        "count",
        ratio(t.observer.count as f64, requests, 1.0),
    ));
    m.push(Metric::time(
        "obs.observer_ns_per_event",
        "ns",
        ratio(t.observer.total_ns as f64, t.observer.count as f64, 1.0),
    ));
    let bytes: usize = t.outcome.archive.values().map(Vec::len).sum();
    let codec = codec_ns_per_kib(t, failures);
    let data = t.clock.0.borrow();
    // The last segment closes the run after the last epoch.
    let epochs = &t.segment_ns[..t.segment_ns.len().saturating_sub(1)];
    m.extend(serve_layers(
        epochs,
        data.stamps.as_deref().unwrap_or(&[]),
        ratio(r.shed as f64, r.offered as f64, 1e3),
        r.snapshots as f64,
        r.restores as f64,
        bytes as f64,
        codec,
    ));
    m
}

/// One pass of `serve-mix`. Untraced, it records timings when `record`
/// is set.
pub fn pass(opts: &Options, record: bool) -> Pass {
    let record = record && !opts.trace;
    let plain = serve_pass(opts.seed, &opts.sizes, false, record, None);
    let r = &plain.outcome.report;
    let mut failures = plain.failures.clone();
    let (metrics, timings) = if opts.trace {
        let traced = serve_pass(opts.seed, &opts.sizes, true, true, opts.span_log.as_deref());
        failures.extend(traced.failures.iter().cloned());
        if fingerprint(&traced) != fingerprint(&plain) {
            failures.push("traced outcome differs from untraced outcome".into());
        }
        (per_layer(&plain, &traced, &mut failures), None)
    } else {
        (end_to_end(&plain), record.then(|| timings(&plain)))
    };
    Pass {
        notes: vec![format!(
            "request latencies per pass: {} over {} epochs",
            r.processed, r.epochs
        )],
        fingerprint: fingerprint(&plain),
        attempted: r.offered,
        failed: if failures.is_empty() {
            r.shed
        } else {
            r.offered
        },
        failures,
        metrics,
        timings,
    }
}
