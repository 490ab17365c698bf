//! Tests of the benchmark itself, at tiny input sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use hnp_perfbench::span::Tracer;
use hnp_perfbench::{run, Metric, Options, Outcome, Sizes, Workload};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::TINY,
        span_log: None,
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        entry[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_emits(out: &Outcome, section: &str) {
    assert!(out.correct, "checks failed: {:?}", out.failures);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let emitted: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let expected = listed(section);
    assert!(!expected.is_empty());
    assert_eq!(
        emitted, expected,
        "metrics differ from BENCHMARK.json {section}"
    );
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn every_workload_emits_every_listed_metric() {
    for w in Workload::ALL {
        assert_emits(&tiny(w, false), "end_to_end");
        assert_emits(&tiny(w, true), "per_layer");
    }
}

#[test]
fn count_metrics_repeat_exactly() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let exact =
                |o: Outcome| -> Vec<Metric> { o.metrics.into_iter().filter(|m| m.exact).collect() };
            let (a, b) = (exact(tiny(w, trace)), exact(tiny(w, trace)));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    // root [0, 100) holds a [10, 40) and b [50, 70); a holds c [20, 30).
    // Allocation counts are read at the same points: 0 at the start,
    // +2 inside c, +1 in a outside c, +4 in b, +1 in the root alone.
    const NAMES: &[&str] = &["root", "a", "b", "c"];
    let mut t = Tracer::new(NAMES, 16);
    t.open_at(0, 0, 0, 0);
    t.open_at(1, 0, 10, 0);
    t.open_at(3, 0, 20, 1);
    t.close_at(30, 3);
    t.close_at(40, 3);
    t.open_at(2, 1, 50, 3);
    t.close_at(70, 7);
    t.close_at(100, 8);
    let self_ns: Vec<u64> = (0..4).map(|i| t.totals(i).self_ns).collect();
    let total_ns: Vec<u64> = (0..4).map(|i| t.totals(i).total_ns).collect();
    let allocs: Vec<u64> = (0..4).map(|i| t.totals(i).self_allocs).collect();
    assert_eq!(self_ns, [50, 20, 20, 10]);
    assert_eq!(total_ns, [100, 30, 20, 10]);
    assert_eq!(allocs, [1, 1, 4, 2]);
    let parents: Vec<Option<u32>> = t.log().iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
    assert_eq!(t.log()[3].req, 1);
}
