//! `steadiness`: run one workload N times, each in its own process with
//! its own seed, and print each metric's median, quartiles and spread
//! (interquartile distance over the median).

use crate::run::Workload;
use crate::stats::{median, quartiles};
use crate::sys;
use std::process::{Command, ExitCode};

/// `(name, value, unit)` triples from a result line this program printed.
fn parse_metrics(line: &str) -> Option<Vec<(String, f64, String)>> {
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for chunk in body.split("}, ").chain(std::iter::once("")) {
        let Some((name, rest)) = chunk.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches('"').to_string();
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        let unit = unit.split('"').next()?.to_string();
        out.push((name, value.parse().ok()?, unit));
    }
    Some(out)
}

pub fn main(args: &[String]) -> ExitCode {
    let parsed = crate::flags(
        args,
        &["--workload", "--runs", "--seed", "--seconds", "--trace"],
    );
    let Ok(parsed) = parsed else {
        eprintln!("{}", parsed.err().unwrap_or_default());
        return ExitCode::from(2);
    };
    let (mut workloads, mut runs, mut seed, mut seconds, mut trace) =
        (Vec::new(), 10u64, 1u64, "10", "0");
    for (flag, value) in parsed {
        match flag {
            "--workload" if value == "all" => workloads.extend(Workload::BENCHMARKED),
            "--workload" => match Workload::parse(value) {
                Some(w) => workloads.push(w),
                None => {
                    eprintln!("unknown workload {value:?}");
                    return ExitCode::from(2);
                }
            },
            "--runs" => runs = value.parse().unwrap_or(runs),
            "--seed" => seed = value.parse().unwrap_or(seed),
            "--seconds" => seconds = value,
            _ => trace = value,
        }
    }
    let exe = std::env::current_exe().expect("own executable path");
    println!(
        "# steadiness: runs={runs} seeds={seed}..{} seconds={seconds} trace={trace} \
         available_parallelism={} profile={}",
        seed + runs - 1,
        sys::parallelism(),
        sys::profile()
    );
    let mut ok = true;
    for w in workloads {
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..runs {
            let s = (seed + i).to_string();
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s])
                .args(["--seconds", seconds, "--trace", trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let metrics = parse_metrics(last).filter(|_| out.status.success());
            let Some(metrics) = metrics else {
                eprintln!("{} seed {s} failed ({}):\n{stdout}", w.name(), out.status);
                ok = false;
                continue;
            };
            for (name, value, unit) in metrics {
                match table.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(row) => row.2.push(value),
                    None => table.push((name, unit, vec![value])),
                }
            }
        }
        println!("## {}", w.name());
        println!(
            "{:<32} {:>14} {:>14} {:>14} {:>8} {:>3}",
            "metric", "median", "q1", "q3", "spread", "n"
        );
        for (name, unit, values) in &table {
            let m = median(values);
            let (q1, q3) = quartiles(values);
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{name:<32} {m:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>3} {unit:<6} [{}]",
                100.0 * (q3 - q1) / m.abs().max(f64::MIN_POSITIVE),
                values.len(),
                runs.join(" ")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_its_own_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b.c\": {\"value\": 0.25, \
                    \"unit\": \"1/s\"}}}";
        let m = super::parse_metrics(line).expect("parses");
        assert_eq!(m.len(), 2);
        assert_eq!(m[0], ("a_s".into(), 1.5, "s".into()));
        assert_eq!(m[1], ("b.c".into(), 0.25, "1/s".into()));
    }
}
