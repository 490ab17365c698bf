//! The HNP per-miss benchmark.
//!
//! Three closed-loop workloads drive the workspace crates through their
//! public APIs: `sim-baselines` and `cls-phased` replay a generated
//! trace through `hnp_memsim::Simulator::run`, and `serve-mix` runs
//! `hnp_serve::ServeEngine::run` over a multi-tenant request mix. A run
//! repeats passes over the same seeded inputs. An untraced run times a
//! fixed number of passes ([`TIMED_PASSES`]) and takes each
//! chunk of work from the pass that ran it fastest (see `timed`); a
//! traced run reports the median over its passes. Untraced passes
//! beyond the timed ones only check the outputs.
//!
//! An untraced run reports the end-to-end metrics. A traced run reports
//! per-layer metrics: each pass runs the inputs untraced and then with
//! every span wrapper and the counting allocator on (see [`span`],
//! [`wrap`], [`alloc`]). See `README.md` for the metric table.

pub mod alloc;
mod probe;
mod serve;
mod sim;
pub mod span;
pub mod stats;
pub mod wrap;

use std::path::PathBuf;
use std::time::Instant;

/// Timed passes of an untraced run. Fixed, so that the best-of-K
/// timings have the same bias on every commit; about 25 s of passes per
/// workload on the 2-vCPU host the benchmark was tuned on. The inputs
/// ([`Sizes::FULL`]) are sized so that this many passes fit: the more
/// passes each chunk is timed in, the likelier one of them misses a
/// slow spell of the host.
pub const TIMED_PASSES: usize = 32;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Baseline prefetchers and evictors over a kv-store trace.
    SimBaselines,
    /// The CLS prefetcher over an A-B-A phased trace.
    ClsPhased,
    /// The multi-tenant serving engine.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::SimBaselines,
        Workload::ClsPhased,
        Workload::ServeMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimBaselines => "sim-baselines",
            Workload::ClsPhased => "cls-phased",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `sim-baselines` trace length.
    pub kv_accesses: usize,
    /// Length of each of the three `cls-phased` phases.
    pub phase_accesses: usize,
    /// `serve-mix` tenants (at least 6, so that both crashed tenants
    /// exist).
    pub tenants: u64,
    /// `serve-mix` requests per tenant.
    pub per_tenant: usize,
    /// `serve-mix` epochs between snapshots.
    pub snapshot_interval: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        kv_accesses: 125_000,
        phase_accesses: 20_000,
        tenants: 16,
        per_tenant: 4_000,
        snapshot_interval: 16,
    };

    /// Sizes for the benchmark's own tests: every code path, in well
    /// under a second.
    pub const TINY: Sizes = Sizes {
        kv_accesses: 20_000,
        phase_accesses: 1_500,
        tenants: 6,
        per_tenant: 300,
        snapshot_interval: 4,
    };
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Passes repeat until this many seconds have passed (at least one
    /// pass).
    pub seconds: f64,
    /// Report per-layer metrics from traced passes instead of
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where a traced run writes its span log.
    pub span_log: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Deterministic: every pass over the same inputs must read the
    /// same value.
    pub exact: bool,
}

impl Metric {
    /// A measured time or rate.
    pub fn time(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            exact: false,
        }
    }

    /// A deterministic count or ratio of counts.
    pub fn exact(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            exact: true,
            ..Self::time(name, unit, value)
        }
    }
}

/// One component of an untraced pass: one `Simulator::run` or
/// `ServeEngine::run`, cut into consecutive chunks of work that are the
/// same in every pass.
#[derive(Debug, Default)]
pub struct Component {
    /// Operations completed.
    pub ops: u64,
    /// Host time of each chunk; together they cover the call.
    pub chunk_ns: Vec<u64>,
    /// Host time of each decision within the chunk it ended in, in the
    /// order the decisions ended.
    pub decision_ns: Vec<u32>,
    /// Decisions ended by the end of each chunk: chunk `i` ended
    /// `decision_ns[chunk_end[i - 1]..chunk_end[i]]`.
    pub chunk_end: Vec<usize>,
    /// The decisions that started in an earlier chunk than the one they
    /// ended in.
    pub carried: Vec<Carried>,
}

/// A decision that spans chunks: a request that waits in a queue
/// across epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carried {
    /// Index of the decision in `Component::decision_ns`.
    pub decision: usize,
    /// The chunk it started in.
    pub first: usize,
    /// Host time from its start to the end of chunk `first`.
    pub head_ns: u32,
}

impl Component {
    fn decisions(&self, chunk: usize) -> &[u32] {
        let start = chunk.checked_sub(1).map_or(0, |i| self.chunk_end[i]);
        &self.decision_ns[start..self.chunk_end[chunk]]
    }

    /// The chunk in which decision `i` ended.
    fn chunk_of(&self, i: usize) -> usize {
        self.chunk_end.partition_point(|&end| end <= i)
    }

    fn same_shape(&self, other: &Component) -> bool {
        self.chunk_end == other.chunk_end
            && self.chunk_ns.len() == other.chunk_ns.len()
            && self.carried.len() == other.carried.len()
            && self
                .carried
                .iter()
                .zip(&other.carried)
                .all(|(a, b)| (a.decision, a.first) == (b.decision, b.first))
    }
}

/// Raw timings of one untraced pass. Every pass repeats the same
/// components on the same inputs.
#[derive(Debug, Default)]
pub struct Timings {
    /// Input synthesis plus model or engine construction.
    pub setup_s: f64,
    /// The pass's components, in run order.
    pub components: Vec<Component>,
}

/// The result of one pass over the inputs.
#[derive(Debug)]
pub struct Pass {
    /// Metrics of this pass: deterministic end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Raw timings (untraced passes that record them).
    pub timings: Option<Timings>,
    /// Operations attempted: accesses replayed, or requests offered.
    pub attempted: u64,
    /// Operations failed: shed requests, or every operation of a pass
    /// that failed an output check.
    pub failed: u64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// The program's outputs, which every pass must reproduce.
    pub fingerprint: String,
    /// Sample counts and similar notes for the human summary.
    pub notes: Vec<String>,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// The metrics (see `aggregate`).
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Notes of the first pass.
    pub notes: Vec<String>,
    /// Passes made.
    pub passes: usize,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value:?}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `opts.workload` and aggregates its passes.
///
/// Untraced, the first pass records no timings, and `peak_rss_mb` is
/// read after it: the peak of a process that has run the workload
/// once and holds no per-decision samples. Then come
/// [`TIMED_PASSES`] timed passes, and unrecorded passes until
/// `opts.seconds` have passed, which only check the outputs. Traced,
/// passes repeat until `opts.seconds` have passed (at least one).
pub fn run(opts: &Options) -> Outcome {
    let start = Instant::now();
    let pass = |record: bool| match opts.workload {
        Workload::ServeMix => serve::pass(opts, record),
        _ => sim::pass(opts, record),
    };
    let time_up = || start.elapsed().as_secs_f64() >= opts.seconds;
    let mut passes = Vec::new();
    if opts.trace {
        loop {
            passes.push(pass(true));
            if time_up() {
                break;
            }
        }
        return aggregate(&passes);
    }
    passes.push(pass(false));
    let peak_rss = peak_rss_mib();
    for _ in 0..TIMED_PASSES {
        passes.push(pass(true));
    }
    while !time_up() {
        passes.push(pass(false));
    }
    let mut out = aggregate(&passes);
    match peak_rss {
        Some(mib) => out.metrics.push(Metric::time("peak_rss_mb", "MiB", mib)),
        None => {
            out.correct = false;
            out.failures
                .push("cannot read VmHWM from /proc/self/status".into());
        }
    }
    out
}

/// The timed end-to-end metrics over the timed passes.
///
/// Every timed pass repeats identical work in identical chunks. Each
/// chunk is taken from the timed pass in which it ran fastest, with the
/// decisions it ended there. `accesses_per_s` is the operations over the
/// summed time of those chunks. A decision that spans chunks is rebuilt
/// from them: its time in the chunk it started in and in the chunk it
/// ended in, each from the pass chosen for that chunk, plus the chosen
/// times of the chunks in between. The percentiles are taken over all
/// decisions. The number of timed passes is fixed per workload, so this
/// best-of-K estimate has the same bias on every commit. On a shared
/// host the speed of the machine drops by up to half for tenths of a
/// second to minutes at a time; the fastest of K repeats of a few
/// milliseconds of work passes over the short drops, where a median
/// over passes does not. `setup_s` is the median over the timed passes.
fn timed(timings: &[&Timings], failures: &mut Vec<String>) -> Vec<Metric> {
    let first = timings[0];
    let same_shape = timings.iter().all(|t| {
        t.components.len() == first.components.len()
            && t.components
                .iter()
                .zip(&first.components)
                .all(|(c, f)| c.same_shape(f))
    });
    if !same_shape {
        failures.push("passes cut their work into different chunks".into());
        return Vec::new();
    }
    let (mut ops, mut wall_ns) = (0u64, 0u64);
    let mut decisions = Vec::new();
    for (i, component) in first.components.iter().enumerate() {
        ops += component.ops;
        let passes: Vec<&Component> = timings.iter().map(|t| &t.components[i]).collect();
        let chosen: Vec<&Component> = (0..component.chunk_ns.len())
            .map(|chunk| {
                passes
                    .iter()
                    .copied()
                    .min_by_key(|c| c.chunk_ns[chunk])
                    .unwrap_or(component)
            })
            .collect();
        // before[k]: the chosen time of chunks 0..k.
        let mut before = vec![0u64];
        for (chunk, c) in chosen.iter().enumerate() {
            before.push(before[chunk] + c.chunk_ns[chunk]);
        }
        wall_ns += before[chosen.len()];
        let mut own: Vec<u64> = chosen
            .iter()
            .enumerate()
            .flat_map(|(chunk, c)| c.decisions(chunk).iter().map(|&ns| u64::from(ns)))
            .collect();
        for (j, carried) in component.carried.iter().enumerate() {
            let last = component.chunk_of(carried.decision);
            let head = chosen[carried.first].carried[j].head_ns;
            own[carried.decision] += u64::from(head) + before[last] - before[carried.first + 1];
        }
        decisions.extend(
            own.into_iter()
                .map(|ns| u32::try_from(ns).unwrap_or(u32::MAX)),
        );
    }
    let setups: Vec<f64> = timings.iter().map(|t| t.setup_s).collect();
    vec![
        Metric::time("setup_s", "s", stats::median(&setups)),
        Metric::time(
            "accesses_per_s",
            "1/s",
            stats::ratio(ops as f64, wall_ns as f64, 1e9),
        ),
        Metric::time(
            "miss_ns_p50",
            "ns",
            stats::quantile_ns(&mut decisions, 0.50),
        ),
        Metric::time(
            "miss_ns_p90",
            "ns",
            stats::quantile_ns(&mut decisions, 0.90),
        ),
    ]
}

/// Aggregates passes, with the cross-pass checks: every pass reproduces
/// the first pass's outputs, and every exact metric reads the same in
/// every pass that reports it. The timed metrics come from `timed`;
/// every other metric is the median over the passes that report it.
fn aggregate(passes: &[Pass]) -> Outcome {
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.fingerprint != first.fingerprint {
            failures.push(format!("pass {i} outputs differ from pass 0"));
            failed += p.attempted - p.failed;
        }
    }
    let timings: Vec<&Timings> = passes.iter().filter_map(|p| p.timings.as_ref()).collect();
    let mut metrics = if timings.is_empty() {
        Vec::new()
    } else {
        timed(&timings, &mut failures)
    };
    for m in &first.metrics {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.metrics.iter().find(|x| x.name == m.name))
            .map(|x| x.value)
            .collect();
        if m.exact && values.iter().any(|&v| v != m.value) {
            failures.push(format!("{} differs across passes: {values:?}", m.name));
        }
        metrics.push(Metric {
            value: stats::median(&values),
            ..m.clone()
        });
    }
    Outcome {
        correct: failures.is_empty(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        metrics,
        failures,
        notes: first.notes.clone(),
        passes: passes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two chunks of 1000 operations: chunk 0 ends decisions 0 and 1,
    /// chunk 1 ends decision 2, which started in chunk 0.
    fn timings(chunk_ns: Vec<u64>, decision_ns: Vec<u32>, head_ns: u32) -> Timings {
        Timings {
            setup_s: 1.0,
            components: vec![Component {
                ops: 1000,
                chunk_ns,
                decision_ns,
                chunk_end: vec![2, 3],
                carried: vec![Carried {
                    decision: 2,
                    first: 0,
                    head_ns,
                }],
            }],
        }
    }

    fn value(m: &[Metric], name: &str) -> f64 {
        m.iter().find(|x| x.name == name).unwrap().value
    }

    #[test]
    fn each_chunk_comes_from_its_fastest_pass_with_its_decisions() {
        // Chunk 0 is fastest in pass a, chunk 1 in pass b.
        let a = timings(vec![100, 900], vec![10, 20, 90], 5);
        let b = timings(vec![300, 400], vec![30, 40, 50], 7);
        let mut failures = Vec::new();
        let m = timed(&[&a, &b], &mut failures);
        assert!(failures.is_empty());
        // 1000 operations over 100 + 400 ns.
        assert_eq!(value(&m, "accesses_per_s"), 2e9);
        // Decisions 10 and 20 from pass a; decision 2 is its head in
        // pass a (5) plus its time in chunk 1 of pass b (50): the
        // median of 10, 20, 55 is 20.
        assert_eq!(value(&m, "miss_ns_p50"), 20.0);
        assert!((value(&m, "miss_ns_p90") - 55.2).abs() < 1e-9);
    }

    #[test]
    fn decisions_spanning_chunks_add_the_chunks_between() {
        let mut a = timings(vec![100, 200, 300], vec![10, 20, 30], 5);
        let c = &mut a.components[0];
        c.chunk_end = vec![2, 2, 3];
        let mut failures = Vec::new();
        let m = timed(&[&a], &mut failures);
        assert!(failures.is_empty());
        // Decision 2: 5 in chunk 0, all 200 of chunk 1, 30 in chunk 2.
        assert!((value(&m, "miss_ns_p90") - 235.2).abs() < 1e-9);
    }

    #[test]
    fn passes_with_different_chunks_fail() {
        let a = timings(vec![100, 900], vec![10, 20, 90], 5);
        let mut b = timings(vec![100, 900], vec![10, 20, 90], 5);
        b.components[0].chunk_end = vec![1, 3];
        let mut failures = Vec::new();
        timed(&[&a, &b], &mut failures);
        assert_eq!(failures.len(), 1);
    }
}
