//! The two kinds of run and the metrics they print.

use crate::gauge::{self, Gauge};
use crate::run::{Inputs, Runner, Slice, Target, Window, SETUP_REPS, TRACE_OP_CAP};
use crate::stats::{median, percentile, percentile_any};
use crate::stream;
use crate::sys;
use std::time::Duration;

/// The end-to-end metrics of a timed run, in result-line order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "peak_rss_mb",
    "ok_share",
];

/// Every per-layer metric of the traced run: the layer (module) and the
/// public call it times, and the end-to-end metric and workload it
/// should move. The first [`PER_LAYER_REPORTED`] are in the result line
/// of every workload; the rest are table rows: counts the pinned fault
/// plan keeps at 0 on every workload, and layers only some workloads
/// reach.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "elf.parse_us.p50",
        "feam-elf: LazyElf::parse, probed beside a target phase that missed the BDC cache",
        "setup_s on cold-sweep (first pass, once per binary)",
    ),
    (
        "bdc.describe_us.p50",
        "feam-core::bdc: BinaryDescription::from_bytes, probed on a BDC miss",
        "setup_s on cold-sweep; ~0 on the hot-zipf window",
    ),
    (
        "bdc.describe_us.p99",
        "feam-core::bdc: BinaryDescription::from_bytes, probed on a BDC miss",
        "setup_s on cold-sweep",
    ),
    (
        "bdc.collect_libraries_ms.p50",
        "feam-core::bdc: collect_libraries at the home site, probed after a source phase",
        "latency_p99_ms on cold-sweep",
    ),
    (
        "edc.discover_us.p50",
        "feam-core::edc: discover, probed on an EDC miss of the target phase",
        "latency_p99_ms on fleet-churn (after reconfigure); ~0 share on cold-sweep",
    ),
    (
        "tec.evaluate_us.p50",
        "feam-core::tec: evaluate, probed after each target phase on its inputs",
        "latency_p50_ms on cold-sweep; latency_p99_ms on fleet-churn",
    ),
    (
        "tec.evaluate_us.p99",
        "feam-core::tec: evaluate, probed after each target phase on its inputs",
        "latency_p99_ms on cold-sweep",
    ),
    (
        "phases.target_us.p50",
        "feam-core::phases: run_target_phase, replayed",
        "latency_p50_ms on cold-sweep",
    ),
    (
        "phases.target_us.p99",
        "feam-core::phases: run_target_phase, replayed",
        "latency_p99_ms on cold-sweep",
    ),
    (
        "phases.source_ms.p50",
        "feam-core::phases: run_source_phase",
        "latency_p99_ms on cold-sweep (the extended tail)",
    ),
    (
        "phases.source_ms.p99",
        "feam-core::phases: run_source_phase",
        "latency_p99_ms on cold-sweep",
    ),
    (
        "cache.bdc_hit_ratio",
        "feam-core::cache: BdcCache::stats",
        "throughput_ops_s on cold-sweep and fleet-churn",
    ),
    (
        "cache.edc_hit_ratio",
        "feam-core::cache: EdcCache::stats",
        "throughput_ops_s on cold-sweep and fleet-churn",
    ),
    (
        "cache.stack_test_hit_ratio",
        "feam-core::cache: StackTestCache::stats",
        "throughput_ops_s on cold-sweep and fleet-churn",
    ),
    (
        "svc.handoff_us.p50",
        "feam-svc::service: computed latency minus replayed phase time",
        "latency_p50_ms on cold-sweep",
    ),
    (
        "svc.result_hit_ratio",
        "feam-svc::service: share of submits answered Ready",
        "throughput_ops_s on fleet-churn",
    ),
    (
        "svc.evaluations_per_op",
        "feam-svc::service: evaluations() delta per op",
        "throughput_ops_s on fleet-churn",
    ),
    (
        "fleet.busiest_node_share",
        "feam-svc::fleet: FleetResponse.node",
        "throughput_ops_s on fleet-churn",
    ),
    (
        "trace.unattributed_share",
        "computed latency no layer span covers",
        "-",
    ),
    (
        "trace.overhead_share",
        "traced vs untraced ops per service-second",
        "-",
    ),
    (
        "fleet.failovers",
        "feam-svc::fleet: FleetResponse.failovers",
        "latency_p99_ms on fleet-churn (expected 0)",
    ),
    (
        "fleet.hedged",
        "feam-svc::fleet: FleetResponse.hedged",
        "latency_p99_ms on fleet-churn (expected 0)",
    ),
    (
        "fleet.degraded_routes",
        "feam-svc::fleet: FleetResponse.degraded_route",
        "latency_p99_ms on fleet-churn (expected 0)",
    ),
    (
        "svc.hit_ns.p50",
        "feam-svc::service: submit returning Ready (behind a fleet: the node's own hit latency)",
        "latency_p50_ms on fleet-churn (hits); hot-zipf by hand",
    ),
    (
        "svc.hit_ns.p99",
        "feam-svc::service: submit returning Ready (behind a fleet: the node's own hit latency)",
        "latency_p99_ms on hot-zipf, by hand",
    ),
    (
        "svc.enqueue_us.p50",
        "feam-svc::service: submit returning Pending",
        "latency_p50_ms on cold-sweep",
    ),
    (
        "fleet.hit_overhead_us.p50",
        "feam-svc::fleet: Fleet::predict hit minus node-side hit",
        "latency_p50_ms on fleet-churn",
    ),
    (
        "fleet.config_op_us.p50",
        "feam-svc::fleet: update_binary / reconfigure_site",
        "throughput_ops_s on fleet-churn",
    ),
    (
        "fleet.config_op_us.p99",
        "feam-svc::fleet: update_binary / reconfigure_site",
        "throughput_ops_s on fleet-churn",
    ),
];

pub const PER_LAYER_REPORTED: usize = 20;

/// Fewest complete slices a timed window may report: one per set-up, so
/// a slow host yields a coarser median rather than a failed run.
pub const MIN_SLICES: usize = SETUP_REPS;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: the metrics the result line carries, the extra rows
/// printed only in the table, and the correctness verdict.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Rows printed beside the metrics (they do not apply to every
    /// workload, or are deterministic counts).
    pub extra: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub failures: Vec<String>,
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn show(v: Option<f64>, unit: &str) -> String {
    v.map_or("n/a (too few samples)".to_string(), |v| {
        format!("{v:.4} {unit}")
    })
}

/// Operations per second of program time over a slice.
fn rate(s: &Slice) -> f64 {
    s.ops as f64 / (s.service_ns as f64 / 1e9)
}

/// Median over the slices that have it of one slice figure.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> Option<f64> {
    let v: Vec<f64> = slices.iter().filter_map(f).collect();
    (!v.is_empty()).then(|| median(&v))
}

/// The timed run: [`SETUP_REPS`] independent set-ups (`setup_s` is their
/// median), each followed by its share of the `seconds` window on its
/// own [`crate::run::Segment`]. All slices of all set-ups are summarized
/// together, so one unlucky instance or noisy stretch moves a third of
/// the slices, not the result. Every time in the result line is
/// expressed at the gauge's reference speed (see [`crate::gauge`]): a
/// slice's by the gauge probes run between its operations, a set-up's by
/// the median probe of the window; the unscaled figures are table rows.
/// `base_rss_mb` is the resident set the benchmark's own inputs hold;
/// `peak_rss_mb` is the peak above it.
pub fn timed(
    inputs: &Inputs,
    seconds: u64,
    base_rss_mb: f64,
    gauge: &mut Gauge,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed, mut evaluations) = (0, 0, 0);
    let mut model = stream::Counts::default();
    let share = Duration::from_secs_f64(seconds as f64 / SETUP_REPS as f64);
    let slice_ops = inputs.workload.slice_ops(inputs.shape);
    let (steal0, ticks0) = sys::cpu_ticks();
    let mut w = Window::default();
    for segment in &inputs.segments {
        // Every set-up faults its memory in, as the first one in a fresh
        // process does, rather than reusing what the last one freed.
        sys::release_free_heap();
        let t0 = std::time::Instant::now();
        let target = Target::build(inputs.workload, &inputs.corpus);
        let mut runner = Runner::new(inputs, segment, &target, false);
        runner.warm_up();
        setup_s.push(t0.elapsed().as_secs_f64());
        let warm = runner.swap_window(w);
        attempted += warm.ops();
        failed += warm.failed();
        failures.extend(warm.failures);
        let evals0 = target.evaluations();
        let ops = runner.run_window(share, usize::MAX, Some((slice_ops, &mut *gauge)));
        evaluations += target.evaluations() - evals0;
        w = runner.swap_window(Window::default());
        // What a correct result cache does over this share of the window.
        let warm_model = stream::model_counts(inputs.shape, segment.warmup.iter().copied());
        let m = stream::model_counts(
            inputs.shape,
            segment
                .warmup
                .iter()
                .copied()
                .chain((0..ops).map(|i| segment.stream.get(inputs.shape, i))),
        );
        model.hits += m.hits - warm_model.hits;
        model.computed += m.computed - warm_model.computed;
    }
    let (steal1, ticks1) = sys::cpu_ticks();
    let steal = steal1.saturating_sub(steal0) as f64 / ticks1.saturating_sub(ticks0).max(1) as f64;
    attempted += w.ops();
    failed += w.failed();
    failures.extend(w.failures.iter().cloned());

    let peak = sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")? - base_rss_mb;
    // Rate and percentiles are taken per slice, expressed at the gauge's
    // reference speed with the slice's own gauge time, and reported as
    // the median over slices, so a stall or a noisy second moves one
    // slice, not the result.
    let full: Vec<&Slice> = w
        .slices
        .iter()
        .filter(|s| s.reads.p99_ns.is_some())
        .collect();
    if full.len() < MIN_SLICES || full.len() < w.slices.len() {
        return Err(format!(
            "{} complete slices, {} with enough reads for a p99 with 10 samples beyond \
             it; need at least {MIN_SLICES}, all of them",
            w.slices.len(),
            full.len()
        ));
    }
    let per_slice =
        |f: &dyn Fn(&Slice) -> f64| median(&full.iter().map(|s| f(s)).collect::<Vec<_>>());
    // A set-up has no probes of its own (probes right after the heap is
    // released would time page faults, not the host); it is scaled by the
    // median probe of the run's window.
    let gauge_ns = per_slice(&|s| s.gauge_ns);
    let metrics = vec![
        metric("setup_s", median(&setup_s) * gauge::scale(gauge_ns), "s"),
        metric(
            "throughput_ops_s",
            per_slice(&|s| rate(s) / gauge::scale(s.gauge_ns)),
            "1/s",
        ),
        metric(
            "latency_p50_ms",
            per_slice(&|s| ms(s.reads.p50_ns.unwrap_or(0)) * gauge::scale(s.gauge_ns)),
            "ms",
        ),
        metric(
            "latency_p99_ms",
            per_slice(&|s| ms(s.reads.p99_ns.unwrap_or(0)) * gauge::scale(s.gauge_ns)),
            "ms",
        ),
        metric("peak_rss_mb", peak, "MB"),
        metric(
            "ok_share",
            (w.reads - w.failed_reads) as f64 / w.reads.max(1) as f64,
            "share",
        ),
    ];
    assert!(metrics.iter().map(|m| m.name).eq(END_TO_END));
    let computed = sorted(w.computed_ns.clone());
    let computed_n = w.computed_ns.len() as u64;
    let extra = vec![
        (
            "slices x ops each".into(),
            format!(
                "{} x {}",
                w.slices.len(),
                inputs.workload.slice_ops(inputs.shape)
            ),
        ),
        (
            "unscaled setup_s / ops/s / p50 / p99".into(),
            format!(
                "{:.3} s / {:.0} 1/s / {:.4} ms / {:.4} ms",
                median(&setup_s),
                per_slice(&|s| rate(s)),
                per_slice(&|s| ms(s.reads.p50_ns.unwrap_or(0))),
                per_slice(&|s| ms(s.reads.p99_ns.unwrap_or(0))),
            ),
        ),
        (
            "per-slice ops/s (unscaled)".into(),
            w.slices
                .iter()
                .map(|s| format!("{:.0}", rate(s)))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "per-slice gauge us".into(),
            w.slices
                .iter()
                .map(|s| format!("{:.0}", s.gauge_ns / 1e3))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "per-slice p50 / p99 us (unscaled)".into(),
            w.slices
                .iter()
                .map(|s| {
                    let f = |v: Option<u64>| v.map_or("-".into(), |v| format!("{:.1}", us(v)));
                    format!("{}/{}", f(s.reads.p50_ns), f(s.reads.p99_ns))
                })
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "hit_p50_us (median over slices, unscaled)".into(),
            show(slice_median(&w.slices, |s| s.hits.p50_ns.map(us)), "us"),
        ),
        (
            "hit_p99_us (median over slices, unscaled)".into(),
            show(slice_median(&w.slices, |s| s.hits.p99_ns.map(us)), "us"),
        ),
        (
            "computed_p50_ms (unscaled)".into(),
            show(percentile(&computed, 0.50).map(ms), "ms"),
        ),
        (
            "computed_p99_ms (unscaled)".into(),
            show(percentile(&computed, 0.99).map(ms), "ms"),
        ),
        (
            "sim_cpu_s_per_computed".into(),
            show(
                (computed_n > 0).then(|| w.sim_cpu_s / computed_n as f64),
                "s (simulated)",
            ),
        ),
        (
            "reads / hits / computed / config ops".into(),
            format!(
                "{} / {} / {} / {}",
                w.reads, w.hits, computed_n, w.config_ops
            ),
        ),
        (
            "model window hits / computed".into(),
            format!("{} / {}", model.hits, model.computed),
        ),
        ("evaluations".into(), evaluations.to_string()),
        (
            "host steal over set-ups and window".into(),
            format!("{:.2}% of CPU time", 100.0 * steal),
        ),
        (
            "median gauge probe".into(),
            format!(
                "{:.1} us (reference {:.1} us)",
                gauge_ns / 1e3,
                gauge::REFERENCE_NS / 1e3
            ),
        ),
        (
            "setup_s runs (unscaled)".into(),
            setup_s
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    ];
    Ok(Outcome {
        metrics,
        extra,
        attempted,
        failed,
        correct: failed == 0,
        failures,
    })
}

/// The traced run. An untraced pass over the stream for half the time
/// (at most 5 s and [`TRACE_OP_CAP`] operations) fixes the operation count; a
/// traced pass on a fresh set-up then runs exactly those operations with
/// spans around each layer call and the layer replay of every computed
/// read (the warm-up's included).
pub fn traced(
    inputs: &Inputs,
    seconds: u64,
    spans_path: &std::path::Path,
) -> Result<Outcome, String> {
    let half = Duration::from_secs_f64((seconds as f64 / 2.0).min(5.0));
    let segment = &inputs.segments[0];
    let (ops, untraced_tput) = {
        let target = Target::build(inputs.workload, &inputs.corpus);
        let mut runner = Runner::new(inputs, segment, &target, false);
        runner.warm_up();
        runner.swap_window(Window::default());
        let ops = runner.run_window(half, TRACE_OP_CAP, None);
        (ops, runner.w.ops() as f64 / runner.w.service_ns as f64)
    };

    let target = Target::build(inputs.workload, &inputs.corpus);
    let mut runner = Runner::new(inputs, segment, &target, true);
    runner.warm_up();
    let warm = runner.swap_window(Window::default());
    let evals0 = target.evaluations();
    // Generous: the replay roughly doubles the cost of a computed read.
    runner.run_window(half * 8, ops, None);
    let evaluations = target.evaluations() - evals0;
    let w = std::mem::take(&mut runner.w);
    let tracer = runner.tracer.take().expect("traced runner");
    let agg = std::mem::take(&mut runner.agg);
    tracer
        .write_jsonl(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    let traced_tput = w.ops() as f64 / w.service_ns as f64;
    let d = |name: &str| tracer.durations(name);
    let q = |v: &[u64], p: f64, scale: fn(u64) -> f64| percentile_any(v, p).map(scale);
    let ratio = |hits: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let [bdc, edc, stack] = target.cache_stats();
    let parse = d("elf.parse");
    let describe = d("bdc.describe");
    let collect = d("bdc.collect_libraries");
    let discover = d("edc.discover");
    let evaluate = d("tec.evaluate");
    let target_phase = d("phases.target");
    let source_phase = d("phases.source");
    let handoff = sorted(agg.handoff_ns.clone());

    let mut missing = Vec::new();
    let mut need = |name: &'static str, v: Option<f64>, unit: &'static str| {
        if v.is_none() {
            missing.push(name);
        }
        metric(name, v.unwrap_or(0.0), unit)
    };
    let metrics = vec![
        need("elf.parse_us.p50", q(&parse, 0.5, us), "us"),
        need("bdc.describe_us.p50", q(&describe, 0.5, us), "us"),
        need("bdc.describe_us.p99", q(&describe, 0.99, us), "us"),
        need("bdc.collect_libraries_ms.p50", q(&collect, 0.5, ms), "ms"),
        need("edc.discover_us.p50", q(&discover, 0.5, us), "us"),
        need("tec.evaluate_us.p50", q(&evaluate, 0.5, us), "us"),
        need("tec.evaluate_us.p99", q(&evaluate, 0.99, us), "us"),
        need("phases.target_us.p50", q(&target_phase, 0.5, us), "us"),
        need("phases.target_us.p99", q(&target_phase, 0.99, us), "us"),
        need("phases.source_ms.p50", q(&source_phase, 0.5, ms), "ms"),
        need("phases.source_ms.p99", q(&source_phase, 0.99, ms), "ms"),
        metric(
            "cache.bdc_hit_ratio",
            ratio(bdc.hits, bdc.hits + bdc.misses),
            "ratio",
        ),
        metric(
            "cache.edc_hit_ratio",
            ratio(edc.hits, edc.hits + edc.misses),
            "ratio",
        ),
        metric(
            "cache.stack_test_hit_ratio",
            ratio(stack.hits, stack.hits + stack.misses),
            "ratio",
        ),
        need("svc.handoff_us.p50", q(&handoff, 0.5, us), "us"),
        metric("svc.result_hit_ratio", ratio(w.hits, w.reads), "ratio"),
        metric(
            "svc.evaluations_per_op",
            ratio(evaluations, w.ops()),
            "1/op",
        ),
        metric(
            "fleet.busiest_node_share",
            ratio(w.node_reads.iter().copied().max().unwrap_or(0), w.reads),
            "share",
        ),
        metric(
            "trace.unattributed_share",
            ratio(agg.computed_uncovered_ns, agg.computed_total_ns),
            "share",
        ),
        metric(
            "trace.overhead_share",
            1.0 - traced_tput / untraced_tput,
            "share",
        ),
    ];
    assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(LAYERS[..PER_LAYER_REPORTED].iter().map(|l| l.0)));
    if !missing.is_empty() {
        eprintln!("warning: no samples for {}", missing.join(", "));
    }

    // Layer metrics that only some workloads exercise: table rows.
    let pending_submit = sorted(agg.pending_submit_ns.clone());
    let fleet_hit = sorted(agg.fleet_hit_ns.clone());
    let fleet_node_hit = sorted(agg.fleet_node_hit_ns.clone());
    // A single service's hits are timed around `submit`; behind a fleet,
    // the answering node's own latency of the hit stands in.
    let (hit_submit, hit_unit) = if agg.hit_submit_ns.is_empty() {
        (fleet_node_hit.clone(), "ns (node-side)")
    } else {
        (sorted(agg.hit_submit_ns.clone()), "ns")
    };
    let config = sorted(
        ["fleet.update_binary", "fleet.reconfigure_site"]
            .iter()
            .flat_map(|n| d(n))
            .collect(),
    );
    let na = |v: Option<f64>, unit: &str, n: usize| match v {
        Some(v) => format!("{v:.4} {unit} (n={n})"),
        None => "n/a on this workload".to_string(),
    };
    let fleet_overhead = percentile_any(&fleet_hit, 0.5)
        .zip(percentile_any(&fleet_node_hit, 0.5))
        .map(|(f, n)| us(f) - us(n));
    let mut extra = vec![
        ("fleet.failovers".into(), format!("{} count", w.failovers)),
        ("fleet.hedged".into(), format!("{} count", w.hedged)),
        (
            "fleet.degraded_routes".into(),
            format!("{} count", w.degraded_routes),
        ),
        (
            "svc.hit_ns.p50".into(),
            na(
                q(&hit_submit, 0.5, |n| n as f64),
                hit_unit,
                hit_submit.len(),
            ),
        ),
        (
            "svc.hit_ns.p99".into(),
            na(
                q(&hit_submit, 0.99, |n| n as f64),
                hit_unit,
                hit_submit.len(),
            ),
        ),
        (
            "svc.enqueue_us.p50".into(),
            na(q(&pending_submit, 0.5, us), "us", pending_submit.len()),
        ),
        (
            "fleet.hit_overhead_us.p50".into(),
            na(fleet_overhead, "us", fleet_hit.len()),
        ),
        (
            "fleet.config_op_us.p50".into(),
            na(q(&config, 0.5, us), "us", config.len()),
        ),
        (
            "fleet.config_op_us.p99".into(),
            na(q(&config, 0.99, us), "us", config.len()),
        ),
        (
            "replayed computed reads (mismatches)".into(),
            format!("{} ({})", agg.replayed, agg.replay_mismatches),
        ),
        (
            "traced / untraced ops per service-second".into(),
            format!("{:.1} / {:.1}", traced_tput * 1e9, untraced_tput * 1e9),
        ),
        ("span file".into(), spans_path.display().to_string()),
    ];
    let st = tracer.self_times();
    let total: u64 = st.values().flatten().sum();
    for (name, v) in &st {
        let sum: u64 = v.iter().sum();
        extra.push((
            format!("self {name}"),
            format!(
                "n={} p50={:.2}us total={:.1}ms share={:.3}",
                v.len(),
                percentile_any(v, 0.5).map_or(0.0, us),
                ms(sum),
                ratio(sum, total)
            ),
        ));
    }

    let attempted = warm.ops() + w.ops();
    let failed = warm.failed() + w.failed();
    let mut failures = warm.failures;
    failures.extend(w.failures);
    Ok(Outcome {
        metrics,
        extra,
        attempted,
        failed,
        correct: failed == 0 && agg.replay_mismatches == 0,
        failures,
    })
}

/// The result line: one JSON object, every value with all its digits.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Workload;

    /// Names listed under `key` in the repository's `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = json
            .split_once(&format!("\"{key}\": ["))
            .expect("section present")
            .1;
        let section = section.split_once(']').expect("section closes").0;
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        assert_eq!(listed("end_to_end"), END_TO_END);
        let reported: Vec<&str> = LAYERS[..PER_LAYER_REPORTED].iter().map(|l| l.0).collect();
        assert_eq!(listed("per_layer"), reported);
        let workloads: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads"), workloads);
    }
}
