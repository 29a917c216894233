//! `feam-eval --serve-bench`: drive the [`feam_svc`] prediction service
//! with the deterministic Zipf-skewed workload and report throughput,
//! latency percentiles, cache hit rates and cached-vs-uncached
//! equivalence. The committed baseline lives in `BENCH_serve.json`.

use crate::Experiment;
use feam_svc::{
    BenchParams, PredictService, RegisteredBinary, ServeBenchComparison, ServiceConfig,
};
use std::sync::Arc;

/// The deterministic, popularity-ranked subset of `exp`'s corpus every
/// bench registers: `(name, image, home site)` triples.
///
/// The subset strides through the corpus (rather than taking a prefix) so
/// it spans suites, home sites and MPI stacks. The rank prefix makes
/// registry order — and therefore which binaries the Zipf head lands on —
/// deterministic and independent of corpus label collisions.
pub fn bench_corpus(exp: &Experiment, binaries: usize) -> Vec<(String, Arc<Vec<u8>>, String)> {
    let items = exp.corpus.binaries();
    let stride = (items.len() / binaries.max(1)).max(1);
    let home = |i: usize| exp.sites.get(i).unwrap_or(&exp.sites[0]).name().to_string();
    items
        .iter()
        .step_by(stride)
        .take(binaries)
        .enumerate()
        .map(|(rank, item)| {
            let name = format!("{rank:03}-{}", item.label());
            (name, item.image.clone(), home(item.compiled_at))
        })
        .collect()
}

/// A service over `seed`'s testbed with the [`bench_corpus`] subset
/// registered.
pub fn bench_service(seed: u64, binaries: usize, cfg: ServiceConfig) -> PredictService {
    let exp = Experiment::new(seed);
    let corpus = bench_corpus(&exp, binaries);
    let svc = PredictService::with_sites(cfg, exp.sites);
    for (name, image, home) in corpus {
        svc.register_binary(&name, RegisteredBinary::new(image, &home))
            .expect("rank-prefixed names are unique");
    }
    svc
}

/// Run the serving benchmark at `seed`; `quick` selects the CI-sized
/// stream.
pub fn serve_bench(seed: u64, quick: bool) -> ServeBenchComparison {
    let params = if quick {
        BenchParams::quick(seed)
    } else {
        BenchParams::standard(seed)
    };
    feam_svc::run_serve_bench(&params, |caching| {
        let cfg = ServiceConfig {
            caching,
            sites_seed: seed,
            ..ServiceConfig::default()
        };
        bench_service(seed, params.stream.binaries, cfg)
    })
}

/// Human-readable report.
pub fn render_serve(cmp: &ServeBenchComparison) -> String {
    let mut out = String::new();
    out.push_str("SERVING BENCHMARK (Zipf-skewed request stream)\n");
    for r in [&cmp.cached, &cmp.uncached] {
        out.push_str(&format!(
            "  {:<9} {:>6} reqs in {:>7.2}s  {:>9.1} req/s  p50 {:>8}us p95 {:>8}us p99 {:>8}us\n",
            if r.caching { "cached" } else { "uncached" },
            r.completed,
            r.wall_seconds,
            r.throughput_rps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
        ));
        if r.p50_us == 0 {
            // Sub-microsecond medians are real on the result-cache path;
            // surface the nanosecond samples instead of a misleading 0.
            out.push_str(&format!(
                "            sub-us detail: p50 {}ns p95 {}ns p99 {}ns
",
                r.p50_ns, r.p95_ns, r.p99_ns,
            ));
        }
    }
    let c = &cmp.cached;
    out.push_str(&format!(
        "  cache hit rates: result {:.1}%  bdc {:.1}%  edc {:.1}%  (coalesced {}, shed {})\n",
        100.0 * c.result_cache_hits as f64 / c.completed.max(1) as f64,
        100.0 * c.bdc_hit_rate,
        100.0 * c.edc_hit_rate,
        c.coalesced,
        c.shed,
    ));
    out.push_str(&format!(
        "  speedup {:.1}x, predictions {} across cached/uncached twins\n",
        cmp.speedup,
        if cmp.equivalent {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_service_registers_the_requested_subset() {
        let cfg = |caching| ServiceConfig {
            caching,
            ..ServiceConfig::default()
        };
        let svc = bench_service(5, 6, cfg(true));
        assert_eq!(svc.registered(), 6);
        assert!(svc.caches().is_some());
        let names = svc.binary_names();
        assert_eq!(names.len(), 6);
        assert!(
            names[0].starts_with("000-"),
            "rank-prefixed: {:?}",
            names[0]
        );
        // Deterministic: same seed, same registry.
        assert_eq!(bench_service(5, 6, cfg(false)).binary_names(), names);
    }

    #[test]
    fn render_serve_is_stable_shape() {
        use feam_svc::ServeBenchReport;
        let report = |caching: bool| ServeBenchReport {
            seed: 1,
            caching,
            requests: 10,
            completed: 10,
            shed: 0,
            result_cache_hits: if caching { 8 } else { 0 },
            coalesced: 0,
            wall_seconds: 0.5,
            throughput_rps: 20.0,
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            p50_ns: 100_000,
            p95_ns: 200_000,
            p99_ns: 300_000,
            bdc_hit_rate: 0.9,
            edc_hit_rate: 0.8,
        };
        let cmp = feam_svc::ServeBenchComparison {
            cached: report(true),
            uncached: report(false),
            speedup: 6.0,
            equivalent: true,
        };
        let s = render_serve(&cmp);
        assert!(s.contains("speedup 6.0x"));
        assert!(s.contains("byte-identical"));
        assert!(s.contains("cached"));
        assert!(s.contains("uncached"));
    }
}
