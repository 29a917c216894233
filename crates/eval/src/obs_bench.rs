//! `feam-eval --obs-bench`: measure what telemetry costs on the serving
//! hot path. The committed baseline lives in `BENCH_obs.json`.
//!
//! Three otherwise-identical cached services replay the same seeded Zipf
//! stream ([`feam_svc::bench::run_stream`]); they differ only in
//! their recorder:
//!
//! * **off** — [`Recorder::disabled`]: every telemetry call is a no-op
//!   behind an `Option` check (the compiled-out shape).
//! * **null** — [`Recorder::with_sink`] + [`NullSink`]: spans, events and
//!   process-lifetime metrics are produced and discarded at the sink.
//! * **full** — [`Recorder::serving`]: everything the obs plane does in
//!   production — windowed registry, trace buffers, tail exemplars.
//!
//! The CI gate is the *cached path*: requests answered straight from the
//! result cache are the common case and the one where telemetry is the
//! largest relative cost (the fast path is a map probe plus atomics).
//! The gate allows `full` p99 at most `(1 + max_overhead) × null p99 +
//! SLACK_US`. The absolute slack exists because cached-path p99 is tens
//! of microseconds: a bare percentage gate on numbers that small trips on
//! scheduler jitter, not telemetry regressions.

use feam_obs::{NullSink, Recorder, WindowSpec};
use feam_svc::bench::{percentile, run_stream, BenchParams};
use feam_svc::ServiceConfig;
use std::time::Instant;

/// Absolute slack added to the cached-path p99 gate, microseconds. Keeps
/// the relative gate meaningful on micro-scale latencies without letting
/// a real (hundreds of µs) regression through.
pub const SLACK_US: u64 = 1_500;

/// One telemetry configuration's measurements.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ObsConfigReport {
    /// `"off"`, `"null"`, or `"full"`.
    pub config: String,
    pub requests: u64,
    pub result_cache_hits: u64,
    pub wall_seconds: f64,
    pub throughput_rps: f64,
    /// Percentiles over all requests.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Percentiles over result-cache hits only — the gated hot path.
    pub hit_p50_us: u64,
    pub hit_p99_us: u64,
}

/// The full three-way comparison plus the gate verdict.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ObsBenchReport {
    pub seed: u64,
    pub quick: bool,
    pub off: ObsConfigReport,
    pub null_sink: ObsConfigReport,
    pub full: ObsConfigReport,
    /// `full.hit_p99 / null.hit_p99 - 1` (the gated ratio).
    pub overhead_full_vs_null: f64,
    /// `full.hit_p99 / off.hit_p99 - 1` (informational).
    pub overhead_full_vs_off: f64,
    pub max_overhead: f64,
    pub slack_us: u64,
    pub pass: bool,
}

/// Replay the stream against one service configuration.
fn run_config(
    seed: u64,
    params: &BenchParams,
    config: &str,
    recorder: Recorder,
) -> ObsConfigReport {
    let cfg = ServiceConfig {
        caching: true,
        sites_seed: seed,
        recorder,
        ..ServiceConfig::default()
    };
    let mut svc = crate::serve::bench_service(seed, params.stream.binaries, cfg);
    svc.start();
    let mut all: Vec<u64> = Vec::with_capacity(params.requests);
    let mut hits: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    run_stream(
        &svc,
        &params.stream,
        params.requests,
        params.wave,
        |_, _, resp| {
            all.push(resp.latency_us);
            if resp.from_result_cache {
                hits.push(resp.latency_us);
            }
        },
    );
    let wall_seconds = t0.elapsed().as_secs_f64();
    all.sort_unstable();
    hits.sort_unstable();
    ObsConfigReport {
        config: config.to_string(),
        requests: params.requests as u64,
        result_cache_hits: hits.len() as u64,
        wall_seconds,
        throughput_rps: if wall_seconds > 0.0 {
            all.len() as f64 / wall_seconds
        } else {
            0.0
        },
        p50_us: percentile(&all, 0.50),
        p99_us: percentile(&all, 0.99),
        hit_p50_us: percentile(&hits, 0.50),
        hit_p99_us: percentile(&hits, 0.99),
    }
}

/// Run the telemetry-overhead benchmark and apply the cached-path gate.
pub fn obs_bench(seed: u64, quick: bool, max_overhead: f64) -> ObsBenchReport {
    let params = if quick {
        BenchParams::quick(seed)
    } else {
        BenchParams::standard(seed)
    };
    let off = run_config(seed, &params, "off", Recorder::disabled());
    let null_sink = run_config(
        seed,
        &params,
        "null",
        Recorder::with_sink(Box::new(NullSink)),
    );
    let full = run_config(
        seed,
        &params,
        "full",
        Recorder::serving(Box::new(NullSink), WindowSpec::default(), 8),
    );

    let ratio = |a: u64, b: u64| {
        if b > 0 {
            a as f64 / b as f64 - 1.0
        } else {
            0.0
        }
    };
    let overhead_full_vs_null = ratio(full.hit_p99_us, null_sink.hit_p99_us);
    let overhead_full_vs_off = ratio(full.hit_p99_us, off.hit_p99_us);
    let budget_us = null_sink.hit_p99_us as f64 * (1.0 + max_overhead) + SLACK_US as f64;
    let pass = (full.hit_p99_us as f64) <= budget_us;
    ObsBenchReport {
        seed,
        quick,
        off,
        null_sink,
        full,
        overhead_full_vs_null,
        overhead_full_vs_off,
        max_overhead,
        slack_us: SLACK_US,
        pass,
    }
}

/// Human-readable report.
pub fn render_obs_bench(r: &ObsBenchReport) -> String {
    let mut out = String::new();
    out.push_str("TELEMETRY OVERHEAD BENCHMARK (cached serving path)\n");
    for c in [&r.off, &r.null_sink, &r.full] {
        out.push_str(&format!(
            "  {:<5} {:>6} reqs ({:>5} cache hits) {:>9.1} req/s  all p50/p99 {:>6}/{:>8}us  hit p50/p99 {:>5}/{:>7}us\n",
            c.config,
            c.requests,
            c.result_cache_hits,
            c.throughput_rps,
            c.p50_us,
            c.p99_us,
            c.hit_p50_us,
            c.hit_p99_us,
        ));
    }
    out.push_str(&format!(
        "  cached-path p99 overhead: full vs null {:+.1}%, full vs off {:+.1}%\n",
        100.0 * r.overhead_full_vs_null,
        100.0 * r.overhead_full_vs_off,
    ));
    out.push_str(&format!(
        "  gate: full hit p99 {}us <= null {}us x {:.2} + {}us slack: {}\n",
        r.full.hit_p99_us,
        r.null_sink.hit_p99_us,
        1.0 + r.max_overhead,
        r.slack_us,
        if r.pass { "PASS" } else { "FAIL" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_applies_relative_and_absolute_slack() {
        let cfg = |config: &str, hit_p99: u64| ObsConfigReport {
            config: config.into(),
            requests: 100,
            result_cache_hits: 80,
            wall_seconds: 1.0,
            throughput_rps: 100.0,
            p50_us: 10,
            p99_us: 1000,
            hit_p50_us: 5,
            hit_p99_us: hit_p99,
        };
        // Within absolute slack even though relatively way over.
        let budget = |null: u64, full: u64| (full as f64) <= (null as f64) * 1.05 + SLACK_US as f64;
        assert!(budget(10, 1000));
        assert!(!budget(10, 2000));
        // Large latencies: the 5% relative term dominates.
        assert!(budget(100_000, 104_000));
        assert!(!budget(100_000, 107_000));
        // Shape check on the renderer.
        let r = ObsBenchReport {
            seed: 1,
            quick: true,
            off: cfg("off", 10),
            null_sink: cfg("null", 12),
            full: cfg("full", 13),
            overhead_full_vs_null: 13.0 / 12.0 - 1.0,
            overhead_full_vs_off: 0.3,
            max_overhead: 0.05,
            slack_us: SLACK_US,
            pass: true,
        };
        let s = render_obs_bench(&r);
        assert!(s.contains("PASS"));
        assert!(s.contains("full vs null"));
    }
}
