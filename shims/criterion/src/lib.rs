//! Offline stand-in for the `criterion` crate.
//!
//! The registry is unreachable in this build environment, so this shim
//! keeps the workspace's `[[bench]]` targets compiling and runnable. It is
//! a measurement harness in miniature: each benchmark runs one untimed
//! warmup, then its iterations split into up to 11 timed rounds,
//! and prints the median time per iteration over the rounds, so one
//! descheduled round on a shared host does not move the figure.
//!
//! Like criterion, a bench binary takes an optional filter: only
//! benchmarks whose full id (`group/name`) contains one of the positional
//! arguments run (`cargo bench --bench elf_micro -- sim_tools`). Flags,
//! such as the `--bench` cargo passes to every bench binary, are skipped.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLES: usize = 20;

/// Most timed rounds one benchmark's iterations are split into.
const ROUNDS: usize = 11;

/// Throughput annotation (accepted, echoed in output).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// How large a batched input is (accepted for API compatibility; every
/// batch here is one input).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Per-iteration timer handle passed to benchmark closures.
pub struct Bencher {
    rounds: usize,
    iters_per_round: u64,
    /// Time per iteration of each round.
    per_iter: Vec<Duration>,
}

impl Bencher {
    /// Time `f` over the configured rounds of iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        for _ in 0..self.rounds {
            let start = Instant::now();
            for _ in 0..self.iters_per_round {
                black_box(f());
            }
            self.per_iter
                .push(start.elapsed() / self.iters_per_round as u32);
        }
    }

    /// Time `routine` alone, each iteration on a fresh input from
    /// `setup`, which runs untimed, as does dropping the output.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.rounds {
            let mut spent = Duration::ZERO;
            for _ in 0..self.iters_per_round {
                let input = setup();
                let start = Instant::now();
                let out = black_box(routine(input));
                spent += start.elapsed();
                drop(out);
            }
            self.per_iter.push(spent / self.iters_per_round as u32);
        }
    }
}

/// The top-level harness.
pub struct Criterion {
    samples: usize,
    filters: Vec<String>,
}

impl Default for Criterion {
    /// The harness with the filters from the command line.
    fn default() -> Self {
        Criterion {
            samples: DEFAULT_SAMPLES,
            filters: filters_from(std::env::args().skip(1)),
        }
    }
}

/// The positional arguments of a bench command line: everything but flags.
fn filters_from(args: impl Iterator<Item = String>) -> Vec<String> {
    args.filter(|a| !a.starts_with('-')).collect()
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        if self.selects(name) {
            run_one(name, self.samples, None, f);
        }
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let samples = self.samples;
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            samples,
            throughput: None,
        }
    }

    /// Total timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Does the command line's filter select the benchmark `id`?
    fn selects(&self, id: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| id.contains(f.as_str()))
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let id = format!("{}/{name}", self.name);
        if self.parent.selects(&id) {
            run_one(&id, self.samples, self.throughput, f);
        }
        self
    }

    pub fn finish(self) {}
}

/// The median of per-iteration round times (the upper one of an even
/// count).
fn median(mut per_iter: Vec<Duration>) -> Duration {
    per_iter.sort_unstable();
    per_iter
        .get(per_iter.len() / 2)
        .copied()
        .unwrap_or_default()
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, samples: usize, tput: Option<Throughput>, mut f: F) {
    let rounds = samples.clamp(1, ROUNDS);
    let mut b = Bencher {
        rounds,
        iters_per_round: samples.div_ceil(rounds) as u64,
        per_iter: Vec::with_capacity(rounds),
    };
    f(&mut b);
    let per_iter = median(b.per_iter);
    let extra = match tput {
        Some(Throughput::Bytes(n)) if per_iter > Duration::ZERO => {
            let mibs = n as f64 / per_iter.as_secs_f64() / (1024.0 * 1024.0);
            format!("  ({mibs:.1} MiB/s)")
        }
        Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
            let eps = n as f64 / per_iter.as_secs_f64();
            format!("  ({eps:.0} elem/s)")
        }
        _ => String::new(),
    };
    println!(
        "{name:<48} {per_iter:>12.2?}/iter, median of {rounds} rounds x {} iters{extra}",
        b.iters_per_round
    );
}

/// Collect benchmark functions under a group name, mirroring criterion's
/// macro signature.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point: run every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(args: &[&str]) -> Criterion {
        Criterion {
            samples: 4,
            filters: filters_from(args.iter().map(|a| a.to_string())),
        }
    }

    #[test]
    fn filter_skips_flags_and_matches_substrings_of_the_full_id() {
        let c = harness(&["--bench", "sim_tools"]);
        assert!(c.selects("sim_tools/ldd_staged_mpi_binary"));
        assert!(!c.selects("elf/parse_256k_binary"));
        assert!(harness(&["--bench"]).selects("anything"), "no filter: all");
    }

    #[test]
    fn unselected_benchmarks_do_not_run() {
        let mut c = harness(&["loader"]);
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("elf");
        g.bench_function("parse", |b| b.iter(|| ran.push("elf")));
        g.finish();
        let mut g = c.benchmark_group("loader");
        g.bench_function("closure", |b| b.iter(|| ran.push("loader")));
        g.finish();
        assert!(!ran.is_empty());
        assert!(ran.iter().all(|r| *r == "loader"));
    }

    #[test]
    fn rounds_split_the_samples_and_the_median_ignores_one_outlier() {
        let mut b = Bencher {
            rounds: 3,
            iters_per_round: 2,
            per_iter: Vec::new(),
        };
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1 + 3 * 2, "one warmup, then rounds x iters");
        assert_eq!(b.per_iter.len(), 3);
        let ms = Duration::from_millis;
        assert_eq!(median(vec![ms(1), ms(900), ms(2)]), ms(2));
    }

    #[test]
    fn batched_setup_runs_once_per_iteration() {
        let mut b = Bencher {
            rounds: 2,
            iters_per_round: 3,
            per_iter: Vec::new(),
        };
        let mut made = 0;
        b.iter_batched(
            || {
                made += 1;
                made
            },
            |n| n * 2,
            BatchSize::SmallInput,
        );
        assert_eq!(made, 1 + 2 * 3);
        assert_eq!(b.per_iter.len(), 2);
    }
}
