//! `feam-perfbench`: the closed-loop FEAM benchmark.
//!
//! ```text
//! feam-perfbench --workload <cold-sweep|hot-zipf|fleet-churn> --seed <n>
//!                --seconds <s> --trace <0|1>
//! feam-perfbench steadiness --workload <name|all> [--runs N] [--seed S]
//!                [--seconds T] [--trace 0|1]
//! ```
//!
//! A run generates its inputs from the seed (corpus, pre-built requests,
//! reference answers, stream), resets the peak-RSS mark, then measures.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! replay and prints the per-layer metrics, writing every span to
//! `.bench_out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Any answer that
//! differs from the reference makes the run exit with code 1.

mod corpus;
mod gauge;
mod report;
mod run;
mod stats;
mod steadiness;
mod stream;
mod sys;
mod trace;

use run::{Inputs, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: feam-perfbench --workload <cold-sweep|hot-zipf|fleet-churn> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     feam-perfbench steadiness --workload <name|all> [--runs N] [--seed S] \
                     [--seconds T] [--trace 0|1]";

/// `--flag value` pairs; unknown flags are errors.
pub fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::ColdSweep,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        let bad = || format!("bad value {value:?} for {flag}");
        match flag {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            _ => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn bench(a: &Args) -> Result<report::Outcome, String> {
    let t0 = std::time::Instant::now();
    let inputs = Inputs::generate(a.workload, a.seed, a.seconds as f64);
    let mut gauge = gauge::Gauge::new();
    let inputs_s = t0.elapsed().as_secs_f64();
    sys::reset_peak_rss().map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;
    let base_rss_mb = sys::rss_mb().ok_or("cannot read VmRSS from /proc/self/status")?;
    println!(
        "# inputs: {} binaries x {} sites, {} reference answers, generated in {inputs_s:.2} s; \
         RSS after reset {base_rss_mb:.1} MB",
        inputs.shape.binaries,
        inputs.shape.sites,
        inputs.reference.len(),
    );
    if a.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            a.workload.name(),
            a.seed
        ));
        report::traced(&inputs, a.seconds, &path)
    } else {
        report::timed(&inputs, a.seconds, base_rss_mb, &mut gauge)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steadiness") {
        return steadiness::main(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pinned before any thread starts, so every thread inherits it: the
    // program's threads share one CPU with the client and the gauge.
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("feam-perfbench: cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# feam-perfbench workload={} seed={} seconds={} trace={} pinned to cpu {cpu} \
         available_parallelism={} profile={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        sys::parallelism(),
        sys::profile()
    );
    println!("# shape: {}", a.workload.shape());
    let outcome = match bench(&a) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("feam-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if a.trace {
        println!("# layer: call timed -> end-to-end metric it should move");
        for (name, layer, moves) in report::LAYERS {
            println!("  {name:<38} {layer} -> {moves}");
        }
    }
    for (k, v) in &outcome.extra {
        println!("  {k:<38} {v}");
    }
    for f in &outcome.failures {
        println!("! {f}");
    }
    println!(
        "# correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!("{}", report::result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
