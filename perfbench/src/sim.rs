//! The simulator workloads: `sim-baselines` and `cls-phased`.
//!
//! Both replay one generated trace through `Simulator::run`, one access
//! after another (a closed loop). An untraced pass clocks only the miss
//! path, and only when it records timings; a traced pass runs the same
//! inputs untraced and then traced, checks that both give the same
//! reports, and derives the per-layer metrics.

use std::time::Instant;

use hnp_baselines::{
    MarkovConfig, MarkovPrefetcher, NextNConfig, NextNPrefetcher, StrideConfig, StridePrefetcher,
};
use hnp_core::{ClsConfig, ClsPrefetcher};
use hnp_memsim::{EvictionPolicy, NoPrefetcher, Prefetcher, SimConfig, SimReport, Simulator};
use hnp_obs::{Counters, EventKind, Histogram, Metric as Sample, Registry};
use hnp_trace::apps::AppWorkload;
use hnp_trace::{phased, Trace};

use crate::span::{SharedTracer, Totals, Tracer};
use crate::stats::{quantile_ns, ratio};
use crate::wrap::{attach, Clocked, LOG_CAPACITY, OBSERVER, ON_EVENT, ON_MISS, RUN, SPANS};
use crate::{probe, Component, Metric, Options, Pass, Sizes, Timings, Workload};

/// The `sim-baselines` runs: each baseline under LRU, then the
/// no-prefetch model under the two other evictors.
const BASELINE_RUNS: [(&str, EvictionPolicy); 6] = [
    ("none", EvictionPolicy::Lru),
    ("next-n", EvictionPolicy::Lru),
    ("stride", EvictionPolicy::Lru),
    ("markov", EvictionPolicy::Lru),
    ("none", EvictionPolicy::Clock),
    ("none", EvictionPolicy::Fifo),
];

/// Models with per-layer prefetcher metrics, in report order.
pub const MODELS: [&str; 5] = ["none", "next-n", "stride", "markov", "cls"];

fn baseline(name: &str) -> Box<dyn Prefetcher> {
    match name {
        "next-n" => Box::new(NextNPrefetcher::with_config(NextNConfig::default())),
        "stride" => Box::new(StridePrefetcher::with_config(StrideConfig::default())),
        "markov" => Box::new(MarkovPrefetcher::with_config(MarkovConfig::default())),
        _ => Box::new(NoPrefetcher),
    }
}

/// The generated trace of a simulator workload.
pub fn inputs(w: Workload, seed: u64, sizes: &Sizes) -> Trace {
    match w {
        Workload::ClsPhased => {
            // A-B-A: the return to pagerank replays the same pages, so
            // replay and the phase detector decide what is retained.
            let a = AppWorkload::PageRankLike.generate(sizes.phase_accesses, seed);
            let b = AppWorkload::McfLike.generate(sizes.phase_accesses, seed.wrapping_add(1));
            phased::concat(&[a.clone(), b, a])
        }
        _ => AppWorkload::KvStoreLike.generate(sizes.kv_accesses, seed),
    }
}

/// One `Simulator::run`.
struct Run {
    model: &'static str,
    lru: bool,
    report: SimReport,
    wall_ns: u64,
    miss_ns: Vec<u32>,
    chunk_ns: Vec<u64>,
    chunk_end: Vec<usize>,
    on_miss_ns: Vec<u32>,
    miss_pages: Vec<u64>,
    candidates: u64,
    issuing: u64,
    misses: u64,
    observers: u64,
    tracer: Option<SharedTracer>,
}

impl Run {
    fn totals(&self, id: usize) -> Totals {
        self.tracer
            .as_ref()
            .map_or_else(Totals::default, |t| t.borrow().totals(id))
    }
}

/// CLS counts read from public getters and `Counters` after the run.
struct ClsCounts {
    replayed: u64,
    trained: u64,
    skipped: u64,
    stored: u64,
    phase_transitions: u64,
    update_ops: u64,
    overlap_milli: u64,
}

#[derive(Default)]
struct SimPass {
    setup_s: f64,
    gen_ns: u64,
    accesses: usize,
    runs: Vec<Run>,
    cls: Option<ClsCounts>,
    failures: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    cfg: SimConfig,
    trace: &Trace,
    model: &mut dyn Prefetcher,
    name: &'static str,
    lru: bool,
    tracer: Option<SharedTracer>,
    counters: Option<&Counters>,
    observers: u64,
    record: bool,
    failures: &mut Vec<String>,
) -> Run {
    let sim = Simulator::new(cfg);
    let mut clocked = Clocked::new(model, tracer.clone(), trace.len(), record);
    crate::alloc::set_counting(tracer.is_some());
    let t0 = Instant::now();
    if let Some(t) = &tracer {
        t.borrow_mut().open(RUN, 0);
    }
    clocked.start();
    let report = sim.run(trace, &mut clocked);
    clocked.finish();
    if let Some(t) = &tracer {
        t.borrow_mut().close();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    crate::alloc::set_counting(false);
    check_report(&report, trace.len(), counters, failures);
    Run {
        model: name,
        lru,
        report,
        wall_ns,
        miss_ns: clocked.miss_ns,
        chunk_ns: clocked.chunk_ns,
        chunk_end: clocked.chunk_end,
        on_miss_ns: clocked.on_miss_ns,
        miss_pages: clocked.miss_pages,
        candidates: clocked.candidates,
        issuing: clocked.issuing,
        misses: clocked.misses,
        observers,
        tracer,
    }
}

/// The output checks of one run: access conservation, prefetch
/// accounting, and (with `Counters` attached) that the report equals
/// the counter fold of the same event stream.
fn check_report(r: &SimReport, accesses: usize, c: Option<&Counters>, failures: &mut Vec<String>) {
    let misses = r.full_misses + r.late_prefetch_hits;
    if r.hits + misses != r.accesses || r.accesses != accesses {
        failures.push(format!(
            "{}: hits {} + misses {misses} != accesses {} (trace {accesses})",
            r.prefetcher, r.hits, r.accesses
        ));
    }
    if r.prefetches_useful + r.prefetches_unused > r.prefetches_issued {
        failures.push(format!(
            "{}: useful {} + unused {} > issued {}",
            r.prefetcher, r.prefetches_useful, r.prefetches_unused, r.prefetches_issued
        ));
    }
    let Some(c) = c else {
        return;
    };
    let fold = [
        ("hits", c.of_kind(EventKind::Hit), r.hits as u64),
        ("full misses", c.get("miss_full"), r.full_misses as u64),
        ("late hits", c.get("miss_late"), r.late_prefetch_hits as u64),
        (
            "issued",
            c.of_kind(EventKind::PrefetchIssued),
            r.prefetches_issued as u64,
        ),
        (
            "dropped",
            c.of_kind(EventKind::PrefetchDropped),
            r.prefetches_dropped as u64,
        ),
        (
            "useful",
            c.get("feedback_useful"),
            r.prefetches_useful as u64,
        ),
        (
            "unused",
            c.get("feedback_unused"),
            r.prefetches_unused as u64,
        ),
        ("ticks", c.get("ticks"), r.total_ticks),
    ];
    for (what, counted, reported) in fold {
        if counted != reported {
            failures.push(format!(
                "{}: counters fold {what} {counted} != report {reported}",
                r.prefetcher
            ));
        }
    }
}

fn sim_pass(w: Workload, seed: u64, sizes: &Sizes, traced: bool, record: bool) -> SimPass {
    let t_setup = Instant::now();
    let trace = inputs(w, seed, sizes);
    let gen_ns = t_setup.elapsed().as_nanos() as u64;
    let cfg = SimConfig::default().sized_to(&trace, 0.5);
    let new_tracer = || traced.then(|| Tracer::shared(SPANS, LOG_CAPACITY));
    let mut failures = Vec::new();
    let mut runs = Vec::new();
    let mut cls_counts = None;
    let setup_s;
    if w == Workload::ClsPhased {
        // No observers untraced; traced, one `Counters` taps the
        // simulator and the model through one shared registry.
        let tracer = new_tracer();
        let reg = Registry::new();
        let counters = tracer.as_ref().map(|t| {
            let c = Counters::new();
            attach(&reg, c.clone(), Some(t));
            c
        });
        let mut cls = ClsPrefetcher::new(
            ClsConfig::default()
                .with_seed(seed)
                .with_observer(reg.clone()),
        );
        setup_s = t_setup.elapsed().as_secs_f64();
        let observers = u64::from(counters.is_some());
        runs.push(run_one(
            cfg.with_observer(reg),
            &trace,
            &mut cls,
            "cls",
            true,
            tracer,
            counters.as_ref(),
            observers,
            record,
            &mut failures,
        ));
        let (trained, skipped) = cls.sampler_stats();
        let stored = cls.episodic().stored() as u64;
        let net = cls.cortex_mut().stats();
        cls_counts = Some(ClsCounts {
            replayed: cls.replayed(),
            trained,
            skipped,
            stored,
            phase_transitions: counters.map_or(0, |c| c.of_kind(EventKind::PhaseTransition)),
            update_ops: net.update_ops,
            overlap_milli: net.overlap_milli(),
        });
    } else {
        let mut models: Vec<Box<dyn Prefetcher>> =
            BASELINE_RUNS.iter().map(|&(m, _)| baseline(m)).collect();
        setup_s = t_setup.elapsed().as_secs_f64();
        for (&(name, policy), model) in BASELINE_RUNS.iter().zip(models.iter_mut()) {
            // The observer set of `hnpctl stats --trace`.
            let tracer = new_tracer();
            let reg = Registry::new();
            let counters = Counters::new();
            attach(&reg, counters.clone(), tracer.as_ref());
            attach(
                &reg,
                Histogram::exponential(Sample::MissStall, 16),
                tracer.as_ref(),
            );
            attach(
                &reg,
                Histogram::exponential(Sample::PrefetchLead, 16),
                tracer.as_ref(),
            );
            runs.push(run_one(
                cfg.clone().with_eviction(policy).with_observer(reg),
                &trace,
                model.as_mut(),
                name,
                policy == EvictionPolicy::Lru,
                tracer,
                Some(&counters),
                3,
                record,
                &mut failures,
            ));
        }
    }
    SimPass {
        setup_s,
        gen_ns,
        accesses: trace.len(),
        runs,
        cls: cls_counts,
        failures,
    }
}

fn sum(runs: &[Run], f: impl Fn(&Run) -> u64) -> f64 {
    runs.iter().map(f).sum::<u64>() as f64
}

fn fingerprint(p: &SimPass) -> String {
    format!("{:?}", p.runs.iter().map(|r| &r.report).collect::<Vec<_>>())
}

/// The deterministic end-to-end metrics of an untraced pass.
fn end_to_end(p: &SimPass) -> Vec<Metric> {
    let runs = &p.runs;
    let useful = sum(runs, |r| r.report.prefetches_useful as u64);
    let misses = sum(runs, |r| r.report.misses() as u64);
    let issued = sum(runs, |r| r.report.prefetches_issued as u64);
    vec![
        Metric::exact(
            "coverage_milli",
            "milli",
            ratio(useful, useful + misses, 1e3),
        ),
        Metric::exact("accuracy_milli", "milli", ratio(useful, issued, 1e3)),
    ]
}

/// The raw timings of an untraced pass that recorded them.
fn timings(p: SimPass) -> Timings {
    Timings {
        setup_s: p.setup_s,
        components: p
            .runs
            .into_iter()
            .map(|r| Component {
                ops: r.report.accesses as u64,
                chunk_ns: r.chunk_ns,
                decision_ns: r.miss_ns,
                chunk_end: r.chunk_end,
                carried: Vec::new(),
            })
            .collect(),
    }
}

/// The per-layer metrics of a traced pass `t`, with its untraced twin
/// `u` for the tracing overhead.
fn per_layer(u: &SimPass, t: &SimPass) -> Vec<Metric> {
    let runs = &t.runs;
    let accesses = t.accesses as f64 * runs.len() as f64;
    let traced_wall = sum(runs, |r| r.wall_ns);
    let plain_wall = sum(&u.runs, |r| r.wall_ns);
    let obs_events = sum(runs, |r| {
        r.totals(OBSERVER)
            .count
            .checked_div(r.observers)
            .unwrap_or(0)
    });
    let mut m = vec![
        Metric::time(
            "trace.gen_ns_per_access",
            "ns",
            ratio(t.gen_ns as f64, t.accesses as f64, 1.0),
        ),
        Metric::time(
            "trace.overhead_milli",
            "milli",
            ratio(traced_wall - plain_wall, plain_wall, 1e3),
        ),
    ];
    m.extend(model_layers(t));
    m.push(Metric::exact(
        "obs.events_per_access",
        "count",
        ratio(sum(runs, |r| r.totals(OBSERVER).count), accesses, 1.0),
    ));
    m.push(Metric::time(
        "obs.observer_ns_per_event",
        "ns",
        ratio(sum(runs, |r| r.totals(OBSERVER).total_ns), obs_events, 1.0),
    ));
    m.extend(crate::serve::absent());
    m
}

/// The `hnp-memsim`, prefetcher, `hnp-core` and `hnp-hebbian` metrics,
/// zero on workloads without a simulator.
pub fn absent() -> Vec<Metric> {
    model_layers(&SimPass::default())
}

fn model_layers(t: &SimPass) -> Vec<Metric> {
    let runs = &t.runs;
    let accesses = t.accesses as f64 * runs.len() as f64;
    let issued = sum(runs, |r| r.report.prefetches_issued as u64);
    let dropped = sum(runs, |r| r.report.prefetches_dropped as u64);
    let mut m = vec![
        Metric::time(
            "memsim.self_ns_per_access",
            "ns",
            ratio(sum(runs, |r| r.totals(RUN).self_ns), accesses, 1.0),
        ),
        Metric::exact(
            "memsim.allocs_per_access",
            "count",
            ratio(sum(runs, |r| r.totals(RUN).self_allocs), accesses, 1.0),
        ),
        Metric::exact(
            "memsim.events_per_access",
            "count",
            ratio(sum(runs, |r| r.totals(ON_EVENT).count), accesses, 1.0),
        ),
        Metric::exact(
            "memsim.prefetch_accept_milli",
            "milli",
            ratio(issued, sum(runs, |r| r.candidates), 1e3),
        ),
        Metric::exact(
            "memsim.dropped_milli",
            "milli",
            ratio(dropped, issued + dropped, 1e3),
        ),
        Metric::exact(
            "memsim.late_milli",
            "milli",
            ratio(
                sum(runs, |r| r.report.late_prefetch_hits as u64),
                issued,
                1e3,
            ),
        ),
    ];
    for model in MODELS {
        // Each model's LRU run; absent models read 0.
        let (mut p50, mut p99, mut allocs, mut cands, mut ev_ns) = (0.0, 0.0, 0.0, 0.0, 0.0);
        if let Some(r) = t.runs.iter().find(|r| r.model == model && r.lru) {
            let mut s = r.on_miss_ns.clone();
            p50 = quantile_ns(&mut s, 0.50);
            p99 = quantile_ns(&mut s, 0.99);
            let on_miss = r.totals(ON_MISS);
            let on_event = r.totals(ON_EVENT);
            allocs = ratio(on_miss.self_allocs as f64, on_miss.count as f64, 1.0);
            cands = ratio(r.candidates as f64, on_miss.count as f64, 1.0);
            ev_ns = ratio(on_event.total_ns as f64, on_event.count as f64, 1.0);
        }
        let name = |what: &str| format!("prefetcher.{model}.{what}");
        m.push(Metric::time(&name("on_miss_ns_p50"), "ns", p50));
        m.push(Metric::time(&name("on_miss_ns_p99"), "ns", p99));
        m.push(Metric::exact(&name("allocs_per_miss"), "count", allocs));
        m.push(Metric::exact(&name("candidates_per_miss"), "count", cands));
        m.push(Metric::time(&name("on_event_ns_per_event"), "ns", ev_ns));
    }
    m.extend(cls_layers(t));
    m
}

/// `hnp-core` and `hnp-hebbian` metrics; zero where no CLS model ran.
fn cls_layers(t: &SimPass) -> Vec<Metric> {
    let (mut replayed, mut trained, mut stored, mut phases, mut issue) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut ops, mut overlap) = (0.0, 0.0);
    let mut stages = [0.0; 6];
    let mut unattributed = 0.0;
    if let (Some(c), Some(run)) = (&t.cls, t.runs.first()) {
        let misses = run.misses as f64;
        replayed = ratio(c.replayed as f64, misses, 1.0);
        trained = ratio(c.trained as f64, (c.trained + c.skipped) as f64, 1e3);
        stored = c.stored as f64;
        phases = c.phase_transitions as f64;
        issue = ratio(run.issuing as f64, misses, 1e3);
        ops = ratio(c.update_ops as f64, misses, 1.0);
        overlap = c.overlap_milli as f64;
        stages = probe::cls_stage_p50s(&run.miss_pages);
        let p50 = quantile_ns(&mut run.on_miss_ns.clone(), 0.5);
        unattributed = ratio(p50 - stages.iter().sum::<f64>(), p50, 1e3);
    }
    let mut m = vec![
        Metric::exact("cls.replayed_per_miss", "count", replayed),
        Metric::exact("cls.trained_milli", "milli", trained),
        Metric::exact("cls.episodes_stored", "count", stored),
        Metric::exact("cls.phase_transitions", "count", phases),
        Metric::exact("cls.issue_milli", "milli", issue),
    ];
    for (stage, p50) in probe::STAGES.iter().zip(stages) {
        m.push(Metric::time(
            &format!("cls.stage.{stage}_ns_p50"),
            "ns",
            p50,
        ));
    }
    m.push(Metric::time(
        "cls.stage.unattributed_milli",
        "milli",
        unattributed,
    ));
    m.push(Metric::exact("hebbian.update_ops_per_miss", "count", ops));
    m.push(Metric::exact("hebbian.overlap_milli", "milli", overlap));
    m
}

/// One pass of a simulator workload. Untraced, it records timings
/// when `record` is set.
pub fn pass(opts: &Options, record: bool) -> Pass {
    let w = opts.workload;
    let plain = sim_pass(w, opts.seed, &opts.sizes, false, record && !opts.trace);
    let attempted = sum(&plain.runs, |r| r.report.accesses as u64) as u64;
    let misses = sum(&plain.runs, |r| r.misses);
    let notes = vec![format!(
        "on_miss calls per pass: {misses} over {} run(s)",
        plain.runs.len()
    )];
    let outputs = fingerprint(&plain);
    let mut failures = plain.failures.clone();
    let (metrics, timings) = if opts.trace {
        let traced = sim_pass(w, opts.seed, &opts.sizes, true, false);
        failures.extend(traced.failures.iter().cloned());
        if fingerprint(&traced) != outputs {
            failures.push("traced reports differ from untraced reports".into());
        }
        let log = traced.runs.last().and_then(|r| r.tracer.as_ref());
        if let (Some(path), Some(t)) = (&opts.span_log, log) {
            if let Err(e) = t.borrow().write_log(path) {
                eprintln!("warning: cannot write span log {}: {e}", path.display());
            }
        }
        (per_layer(&plain, &traced), None)
    } else {
        (end_to_end(&plain), record.then(|| timings(plain)))
    };
    Pass {
        notes,
        fingerprint: outputs,
        failed: if failures.is_empty() { 0 } else { attempted },
        attempted,
        failures,
        metrics,
        timings,
    }
}
