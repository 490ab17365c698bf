//! Spans recorded at layer boundaries, from outside the crates.
//!
//! The traced run opens a span around each call it makes into a layer
//! (`Simulator::run`, `Prefetcher::on_miss` and `on_event`, each
//! `Observer::on_event`, `ServeEngine::run`). Spans nest on one thread,
//! so a layer's self time is its span's duration minus the durations of
//! the spans opened directly inside it; the same holds for allocations.
//! Every span is folded into per-name [`Totals`] when it closes, and
//! the first `log_capacity` spans are also kept whole, with parent and
//! request id, to be written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use crate::alloc;

/// Index of a span name in the tracer's name table.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Name-table index.
    pub name: SpanId,
    /// Log index of the enclosing span, if it was logged.
    pub parent: Option<u32>,
    /// Request id: the miss index in the simulator, the request
    /// sequence number in serve.
    pub req: u64,
    /// Open time.
    pub start_ns: u64,
    /// Close time (`0` while open).
    pub end_ns: u64,
}

/// Aggregates of every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus those of direct children.
    pub self_ns: u64,
    /// Allocations inside the spans but outside their children.
    pub self_allocs: u64,
}

struct Frame {
    name: SpanId,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
    record: Option<u32>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    names: &'static [&'static str],
    origin: Instant,
    stack: Vec<Frame>,
    totals: Vec<Totals>,
    log: Vec<SpanRecord>,
    log_capacity: usize,
}

/// A tracer shared by the wrappers of one run.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer over a fixed name table that logs the first
    /// `log_capacity` spans. All storage is reserved up front, so
    /// recording a span does not allocate inside the spans it measures.
    pub fn new(names: &'static [&'static str], log_capacity: usize) -> Self {
        Self {
            names,
            origin: Instant::now(),
            stack: Vec::with_capacity(64),
            totals: vec![Totals::default(); names.len()],
            log: Vec::with_capacity(log_capacity),
            log_capacity,
        }
    }

    /// The tracer behind a shared handle.
    pub fn shared(names: &'static [&'static str], log_capacity: usize) -> SharedTracer {
        Rc::new(RefCell::new(Self::new(names, log_capacity)))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: SpanId, req: u64) {
        let allocs = alloc::thread_allocs();
        let t = self.now_ns();
        self.open_at(name, req, t, allocs);
    }

    /// Closes the innermost span now.
    pub fn close(&mut self) {
        let t = self.now_ns();
        self.close_at(t, alloc::thread_allocs());
    }

    /// Opens a span at an explicit time and allocation count.
    pub fn open_at(&mut self, name: SpanId, req: u64, t_ns: u64, allocs: u64) {
        let record = if self.log.len() < self.log_capacity {
            self.log.push(SpanRecord {
                name,
                parent: self.stack.last().and_then(|f| f.record),
                req,
                start_ns: t_ns,
                end_ns: 0,
            });
            u32::try_from(self.log.len() - 1).ok()
        } else {
            None
        };
        self.stack.push(Frame {
            name,
            start_ns: t_ns,
            start_allocs: allocs,
            child_ns: 0,
            child_allocs: 0,
            record,
        });
    }

    /// Closes the innermost span at an explicit time and allocation
    /// count. Closing with no span open is a no-op.
    pub fn close_at(&mut self, t_ns: u64, allocs: u64) {
        let Some(f) = self.stack.pop() else {
            return;
        };
        let dur = t_ns.saturating_sub(f.start_ns);
        let inner_allocs = allocs.saturating_sub(f.start_allocs);
        let t = &mut self.totals[f.name];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(f.child_ns);
        t.self_allocs += inner_allocs.saturating_sub(f.child_allocs);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += inner_allocs;
        }
        if let Some(i) = f.record {
            self.log[i as usize].end_ns = t_ns;
        }
    }

    /// Aggregates for one name.
    pub fn totals(&self, name: SpanId) -> Totals {
        self.totals[name]
    }

    /// The logged spans, in open order.
    pub fn log(&self) -> &[SpanRecord] {
        &self.log
    }

    /// Writes the logged spans as tab-separated
    /// `id parent name req start_ns end_ns` lines (`-` for no parent).
    pub fn write_log(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.log.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                self.names[s.name], s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["root", "a", "b"];

    #[test]
    fn unlogged_spans_still_aggregate() {
        let mut t = Tracer::new(NAMES, 1);
        t.open_at(0, 0, 0, 0);
        t.open_at(1, 1, 5, 0);
        t.close_at(9, 3);
        t.close_at(10, 4);
        assert_eq!(t.log().len(), 1);
        assert_eq!(t.log()[0].end_ns, 10);
        assert_eq!(t.totals(1).self_ns, 4);
        assert_eq!(t.totals(0).self_allocs, 1);
    }
}
