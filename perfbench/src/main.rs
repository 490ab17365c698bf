//! Command line of the HNP per-miss benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-baselines|cls-phased|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one `name value unit` line per metric, then the JSON result
//! as the last line. Exits 1 when an output check fails and 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use hnp_perfbench::{run, Options, Sizes, Workload};

const USAGE: &str = "usage: hnp-perfbench --workload sim-baselines|cls-phased|serve-mix \
--seed N --seconds S --trace 0|1 [--span-log FILE]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::SimBaselines,
        seed: 1,
        seconds: 30.0,
        trace: false,
        sizes: Sizes::FULL,
        span_log: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--span-log" => opts.span_log = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.trace && opts.span_log.is_none() {
        // Next to the build, which is ignored by git.
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        if std::fs::create_dir_all(&dir).is_ok() {
            opts.span_log = Some(dir.join(format!("spans-{}.tsv", opts.workload.name())));
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    println!(
        "# {} seed {} {}: {} pass(es)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        out.passes
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<44} {:>16.3} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", out.to_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
