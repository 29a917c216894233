//! Deterministic serving benchmark: the engine behind
//! `feam-eval --serve-bench`.
//!
//! The workload models what a prediction service actually sees: a
//! Zipf-skewed stream — a few popular binaries dominate, the tail is
//! long — of (binary, site, mode) queries over the simulated five-site
//! testbed. Everything is seeded: the same [`StreamParams`] produce the
//! same request stream, so the cached service and its cache-disabled
//! twin answer *identical* queries and their predictions can be compared
//! request-for-request ([`ServeBenchComparison::equivalent`]).
//!
//! The twin runs a deterministic prefix of the same stream (full-length
//! uncached runs would dominate CI wall clock); throughput is reported in
//! requests/second so the comparison is length-independent.
//!
//! This module is the one load generator every in-workspace bench
//! shares: the stream ([`stream_request`] over the [`zipf_index`] draw),
//! the wave submit loop ([`run_stream`]), the answer [`fingerprint`] and
//! the [`percentile`] definition.

use crate::service::{Delivery, PredictRequest, PredictResponse, PredictService, SvcError};
use feam_core::predict::{Prediction, PredictionMode};
use feam_sim::rng;
use std::time::Instant;

/// Shape of the seeded request stream. Two streams with equal params
/// issue identical requests.
#[derive(Debug, Clone)]
pub struct StreamParams {
    /// Master seed for the request stream.
    pub seed: u64,
    /// Distinct binaries in the popularity distribution.
    pub binaries: usize,
    /// Zipf skew exponent (1.0 = classic Zipf; higher = more skew).
    pub zipf_s: f64,
    /// Fraction of requests asking for the extended prediction.
    pub extended_share: f64,
}

/// Serve-bench parameters: the stream plus how much of it each twin runs.
#[derive(Debug, Clone)]
pub struct BenchParams {
    pub stream: StreamParams,
    /// Requests issued against the cached service.
    pub requests: usize,
    /// Requests issued against the cache-disabled twin (a prefix of the
    /// same stream).
    pub uncached_requests: usize,
    /// Requests submitted before draining responses (bounds concurrent
    /// in-flight work; keep at or below the service's queue capacity).
    pub wave: usize,
}

impl BenchParams {
    /// The committed-baseline configuration (`BENCH_serve.json`).
    pub fn standard(seed: u64) -> Self {
        BenchParams {
            stream: StreamParams {
                seed,
                binaries: 24,
                zipf_s: 1.5,
                extended_share: 0.3,
            },
            requests: 4000,
            uncached_requests: 240,
            wave: 32,
        }
    }

    /// CI-sized run (`--serve-bench --quick`).
    pub fn quick(seed: u64) -> Self {
        BenchParams {
            stream: StreamParams {
                seed,
                binaries: 8,
                zipf_s: 1.5,
                extended_share: 0.25,
            },
            requests: 800,
            uncached_requests: 80,
            wave: 16,
        }
    }
}

/// One service run's results.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeBenchReport {
    pub seed: u64,
    pub caching: bool,
    pub requests: u64,
    pub completed: u64,
    /// Retryable rejections observed (each shed request was retried until
    /// admitted, so `completed` still covers the whole stream).
    pub shed: u64,
    /// Requests answered straight from the result cache.
    pub result_cache_hits: u64,
    /// Requests adopted by an in-flight evaluation.
    pub coalesced: u64,
    pub wall_seconds: f64,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Nanosecond-resolution percentiles of the same samples. Result-cache
    /// hits answer in well under a microsecond, where the `_us` fields
    /// truncate to 0 — these carry the real tail.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub bdc_hit_rate: f64,
    pub edc_hit_rate: f64,
}

/// Cached run vs cache-disabled twin over the same seeded stream.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServeBenchComparison {
    pub cached: ServeBenchReport,
    pub uncached: ServeBenchReport,
    /// `cached.throughput_rps / uncached.throughput_rps`.
    pub speedup: f64,
    /// Predictions byte-identical, request-for-request, over the shared
    /// stream prefix.
    pub equivalent: bool,
}

/// Zipf draw for stream position `i`: a 0-based rank in `0..n`, rank r
/// weighted `1/r^s`. `salt` names the stream, so streams that share a
/// seed stay independent.
pub fn zipf_index(seed: u64, salt: &str, i: usize, n: usize, s: f64) -> usize {
    let n = n.max(1);
    let weight = |r: usize| 1.0 / (r as f64).powf(s);
    let total: f64 = (1..=n).map(weight).sum();
    let mut u = rng::unit_f64(rng::hash_parts(seed, &[salt, &i.to_string()])) * total;
    for r in 1..=n {
        u -= weight(r);
        if u <= 0.0 {
            return r - 1;
        }
    }
    n - 1
}

/// One request of the seeded stream: a Zipf-popular binary at a uniform
/// site. Public so the other drivers (the obs harness, the telemetry
/// overhead and fleet benches) replay the exact workload the serve bench
/// measures.
pub fn stream_request(
    stream: &StreamParams,
    names: &[String],
    sites: &[String],
    i: usize,
) -> PredictRequest {
    let idx = i.to_string();
    let n = names.len().min(stream.binaries);
    let binary_ref = names[zipf_index(stream.seed, "bin", i, n, stream.zipf_s)].clone();
    let target_site = rng::pick(stream.seed, &["site", &idx], sites).clone();
    let mode = if rng::chance(stream.seed, &["mode", &idx], stream.extended_share) {
        PredictionMode::Extended
    } else {
        PredictionMode::Basic
    };
    PredictRequest {
        binary_ref,
        target_site,
        mode,
        deadline: None,
    }
}

/// Replay the first `requests` of `stream` against a started `svc`, `wave`
/// submissions at a time. Shed submissions are retried until admitted —
/// the benches measure the cost of the whole stream. `on_answer(i, req,
/// resp)` sees every answer: result-cache hits
/// (`resp.from_result_cache`) as they are submitted, queued ones when
/// their wave drains. Returns the number of shed-and-retried submissions.
pub fn run_stream<F>(
    svc: &PredictService,
    stream: &StreamParams,
    requests: usize,
    wave: usize,
    mut on_answer: F,
) -> u64
where
    F: FnMut(usize, &PredictRequest, &PredictResponse),
{
    let names = svc.binary_names();
    let sites = svc.site_names();
    assert!(!names.is_empty(), "bench stream needs registered binaries");
    let mut shed = 0u64;
    let mut i = 0;
    while i < requests {
        let wave_end = (i + wave.max(1)).min(requests);
        let mut pending = Vec::new();
        for j in i..wave_end {
            let req = stream_request(stream, &names, &sites, j);
            loop {
                match svc.submit(&req) {
                    Ok(Delivery::Ready(resp)) => {
                        on_answer(j, &req, &resp);
                        break;
                    }
                    Ok(Delivery::Pending(rx)) => {
                        pending.push((j, req, rx));
                        break;
                    }
                    Err(SvcError::Overloaded { .. }) => {
                        shed += 1;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("bench stream hit non-retryable error: {e}"),
                }
            }
        }
        for (j, req, rx) in pending {
            let resp = rx
                .recv()
                .expect("worker delivers every queued request")
                .expect("deadline-free bench requests are never shed post-admission");
            on_answer(j, &req, &resp);
        }
        i = wave_end;
    }
    shed
}

/// Exact percentile from sorted samples: the sample at index
/// `round((n - 1) * q)`; 0 when no samples were collected.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Canonical per-request answer, `name@site:json`. Byte-equal
/// fingerprints mean byte-equal predictions.
pub fn fingerprint(req: &PredictRequest, prediction: &Prediction) -> String {
    format!(
        "{}@{}:{}",
        req.binary_ref,
        req.target_site,
        serde_json::to_string(prediction).expect("prediction serializes")
    )
}

struct RunOutput {
    report: ServeBenchReport,
    /// Per-request prediction fingerprints, in stream order.
    fingerprints: Vec<String>,
}

fn run_one(
    params: &BenchParams,
    svc: &PredictService,
    requests: usize,
    caching: bool,
) -> RunOutput {
    // Nanosecond samples; microsecond fields are derived at report time.
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut fingerprints: Vec<Option<String>> = vec![None; requests];
    let mut result_cache_hits = 0u64;
    let t0 = Instant::now();
    let shed = run_stream(
        svc,
        &params.stream,
        requests,
        params.wave,
        |i, req, resp| {
            result_cache_hits += u64::from(resp.from_result_cache);
            latencies.push(resp.latency_ns);
            fingerprints[i] = Some(fingerprint(req, &resp.prediction));
        },
    );
    let wall_seconds = t0.elapsed().as_secs_f64();
    let completed = latencies.len() as u64;
    latencies.sort_unstable();
    let (bdc_hit_rate, edc_hit_rate) = match svc.caches() {
        Some(c) => (c.bdc.stats().hit_rate(), c.edc.stats().hit_rate()),
        None => (0.0, 0.0),
    };
    // Queued = completed - result-hits - coalesced, and every queued key
    // is one evaluation.
    let coalesced = completed
        .saturating_sub(result_cache_hits)
        .saturating_sub(svc.evaluations());

    RunOutput {
        report: ServeBenchReport {
            seed: params.stream.seed,
            caching,
            requests: requests as u64,
            completed,
            shed,
            result_cache_hits,
            coalesced,
            wall_seconds,
            throughput_rps: if wall_seconds > 0.0 {
                completed as f64 / wall_seconds
            } else {
                0.0
            },
            p50_us: percentile(&latencies, 0.50) / 1_000,
            p95_us: percentile(&latencies, 0.95) / 1_000,
            p99_us: percentile(&latencies, 0.99) / 1_000,
            p50_ns: percentile(&latencies, 0.50),
            p95_ns: percentile(&latencies, 0.95),
            p99_ns: percentile(&latencies, 0.99),
            bdc_hit_rate,
            edc_hit_rate,
        },
        fingerprints: fingerprints
            .into_iter()
            .map(|f| f.expect("all answered"))
            .collect(),
    }
}

/// Run the benchmark: the full stream against a caching service, a prefix
/// of the same stream against its cache-disabled twin, and compare.
///
/// `build` constructs a service (with its registry populated) for the
/// given caching flag; both twins must be built identically otherwise.
pub fn run_serve_bench<F>(params: &BenchParams, build: F) -> ServeBenchComparison
where
    F: Fn(bool) -> PredictService,
{
    let mut cached_svc = build(true);
    cached_svc.start();
    let cached = run_one(params, &cached_svc, params.requests, true);
    drop(cached_svc);

    let mut uncached_svc = build(false);
    uncached_svc.start();
    let uncached_n = params.uncached_requests.min(params.requests);
    let uncached = run_one(params, &uncached_svc, uncached_n, false);
    drop(uncached_svc);

    let shared = uncached.fingerprints.len().min(cached.fingerprints.len());
    let equivalent = cached.fingerprints[..shared] == uncached.fingerprints[..shared];
    let speedup = if uncached.report.throughput_rps > 0.0 {
        cached.report.throughput_rps / uncached.report.throughput_rps
    } else {
        0.0
    };
    ServeBenchComparison {
        cached: cached.report,
        uncached: uncached.report,
        speedup,
        equivalent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_zipf_skewed() {
        let params = BenchParams::quick(11).stream;
        let names: Vec<String> = (0..12).map(|i| format!("bin-{i:02}")).collect();
        let sites = vec!["ranger".to_string(), "india".to_string()];
        let a: Vec<String> = (0..200)
            .map(|i| stream_request(&params, &names, &sites, i).binary_ref)
            .collect();
        let b: Vec<String> = (0..200)
            .map(|i| stream_request(&params, &names, &sites, i).binary_ref)
            .collect();
        assert_eq!(a, b, "same seed, same stream");

        // Rank-1 must dominate any single tail binary by a wide margin.
        let count = |name: &str| a.iter().filter(|n| n.as_str() == name).count();
        assert!(count("bin-00") > 4 * count("bin-11"));
    }

    #[test]
    fn serve_stream_is_pinned() {
        // The first 64 requests of the quick seed-42 stream over a fixed
        // universe (binary suffix, first letter of the site,
        // Basic/Extended). The committed serve, obs and fleet baselines
        // rest on this stream, so any change to its draws fails here.
        const PINNED: &str = "01dE 00dB 03bE 01bB 00bE 00cB 00aE 06aB 00cB 01aB 01aB 00eB \
            05eE 00dB 02dB 00bB 06eE 00dB 05dB 06dB 02dB 03dB 00eB 05cE 00dB 01dE 04dE 00bB \
            00dB 00dB 05dB 01eB 00eB 00bB 03cE 00bB 00eB 03aB 00aE 00eE 00aE 00aB 03cB 07aB \
            00cB 00eE 00cB 00bB 01dB 00dE 00bB 01cE 04bB 00aB 03bB 05dB 00cB 07eB 00aB 00eB \
            00eB 02aB 02eB 00aB";
        let params = BenchParams::quick(42).stream;
        let names: Vec<String> = (0..12).map(|i| format!("bin-{i:02}")).collect();
        let sites: Vec<String> = ["alpha", "bravo", "charlie", "delta", "echo"]
            .map(String::from)
            .to_vec();
        let got: Vec<String> = (0..64)
            .map(|i| {
                let r = stream_request(&params, &names, &sites, i);
                let mode = if r.mode == PredictionMode::Extended {
                    'E'
                } else {
                    'B'
                };
                format!("{}{}{mode}", &r.binary_ref[4..], &r.target_site[..1])
            })
            .collect();
        assert_eq!(got.join(" "), PINNED);
    }

    #[test]
    fn report_schema_is_pinned() {
        // `BENCH_serve.json` and the eval renderer both consume this
        // serialization; field set and order are part of the contract.
        // In particular the ns-resolution percentiles must be present —
        // they carry the cached tail that `_us` fields truncate to 0.
        let report = ServeBenchReport {
            seed: 42,
            caching: true,
            requests: 10,
            completed: 10,
            shed: 0,
            result_cache_hits: 7,
            coalesced: 1,
            wall_seconds: 0.5,
            throughput_rps: 20.0,
            p50_us: 0,
            p95_us: 3,
            p99_us: 12,
            p50_ns: 640,
            p95_ns: 3_100,
            p99_ns: 12_400,
            bdc_hit_rate: 0.9,
            edc_hit_rate: 0.8,
        };
        let json = serde_json::to_string(&report).unwrap();
        let expected_order = [
            "seed",
            "caching",
            "requests",
            "completed",
            "shed",
            "result_cache_hits",
            "coalesced",
            "wall_seconds",
            "throughput_rps",
            "p50_us",
            "p95_us",
            "p99_us",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "bdc_hit_rate",
            "edc_hit_rate",
        ];
        let mut at = 0;
        for key in expected_order {
            let needle = format!("\"{key}\":");
            let pos = json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("field {key} missing or out of order in {json}"));
            at += pos + needle.len();
        }
        // Sub-microsecond latencies survive in the ns lane even when the
        // µs lane floors to zero.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["p50_us"].as_u64(), Some(0));
        assert_eq!(v["p50_ns"].as_u64(), Some(640));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        // (len-1) * q rounds half away from zero: index 50, value 51.
        assert_eq!(percentile(&s, 0.50), 51);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
