//! `feam-eval --fleet-bench`: drive the sharded serving fleet with a
//! closed-loop, Zipf-skewed, diurnally-modulated request stream and
//! report (a) the scale-out throughput curve and (b) a node-kill drill —
//! tail latency before/during/after killing one node of four mid-stream,
//! availability, shed rate, and request-for-request equivalence against
//! a single-node oracle. The committed baseline lives in
//! `BENCH_fleet.json`.
//!
//! The load generator reuses the serve bench's seeded stream
//! ([`feam_svc::bench::stream_request`]) so fleet results are directly
//! comparable to single-node serving numbers; the diurnal curve rides on
//! per-client think time (a raised-cosine day: think time peaks in the
//! "night" trough, vanishes at "noon"), which shapes offered load without
//! opening the loop.

use feam_svc::bench::{fingerprint, percentile, stream_request};
use feam_svc::{Fleet, FleetConfig, PredictService, RegisteredBinary, ServiceConfig, StreamParams};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything that shapes a fleet bench run; fully seeded.
#[derive(Debug, Clone)]
pub struct FleetBenchParams {
    /// The serve-bench stream this run replays (seed, binaries, skew).
    pub stream: StreamParams,
    pub quick: bool,
    /// Fleet sizes for the scale-out curve.
    pub scale_points: Vec<usize>,
    /// Requests per scale point.
    pub scale_requests: usize,
    /// Requests for the kill drill (three equal phases).
    pub drill_requests: usize,
    /// Replica-set size for every fleet built.
    pub replication: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Peak per-request think time (µs) for the diurnal curve; 0 = flat.
    pub think_max_us: u64,
    /// Requests per diurnal "day".
    pub diurnal_period: usize,
}

impl FleetBenchParams {
    /// The committed-baseline configuration (`BENCH_fleet.json`).
    pub fn standard(seed: u64) -> Self {
        FleetBenchParams {
            stream: StreamParams {
                seed,
                binaries: 16,
                zipf_s: 1.5,
                extended_share: 0.25,
            },
            quick: false,
            scale_points: vec![1, 2, 4, 8],
            scale_requests: 1200,
            drill_requests: 1500,
            replication: 2,
            clients: 8,
            think_max_us: 200,
            diurnal_period: 300,
        }
    }

    /// CI-sized run (`--fleet-bench --quick`).
    pub fn quick(seed: u64) -> Self {
        FleetBenchParams {
            stream: StreamParams {
                seed,
                binaries: 8,
                zipf_s: 1.5,
                extended_share: 0.25,
            },
            quick: true,
            scale_points: vec![1, 2, 4],
            scale_requests: 240,
            drill_requests: 360,
            replication: 2,
            clients: 4,
            think_max_us: 100,
            diurnal_period: 120,
        }
    }
}

/// One phase (or whole run) of the closed-loop stream.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct PhaseStats {
    pub issued: u64,
    pub answered: u64,
    /// Requests the fleet could not place on any node.
    pub shed: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Replica-set members skipped before an answer (dead/open/overloaded).
    pub failovers: u64,
    /// Answers served from outside the replica set.
    pub degraded_routes: u64,
}

/// One point of the scale-out curve.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScalePoint {
    pub nodes: usize,
    pub requests: u64,
    pub answered: u64,
    pub shed: u64,
    pub wall_seconds: f64,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p99_us: u64,
}

/// The mid-stream node-kill drill: 1 of `nodes` killed at 1/3 of the
/// stream, revived at 2/3.
#[derive(Debug, Clone, serde::Serialize)]
pub struct KillDrillReport {
    pub nodes: usize,
    pub replication: usize,
    pub killed_node: usize,
    pub before: PhaseStats,
    pub during: PhaseStats,
    pub after: PhaseStats,
    /// Answered / issued over the whole drill.
    pub availability: f64,
    /// Answered / issued while the node was down.
    pub availability_during: f64,
    /// Answers whose prediction diverged from the single-node oracle.
    pub wrong_answers: u64,
    /// `wrong_answers == 0` over every answered request.
    pub equivalent: bool,
    /// `during.p99 / max(before.p99, after.p99)` — brownout tail cost.
    pub p99_inflation_during: f64,
}

/// The full `--fleet-bench` artifact.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FleetBenchReport {
    pub seed: u64,
    pub quick: bool,
    /// Cores the run could use (`available_parallelism`): the scale-out
    /// curve means little without it.
    pub cores: usize,
    /// Build profile of the measuring binary: `release` or `debug`.
    pub profile: &'static str,
    pub scale_out: Vec<ScalePoint>,
    pub kill_drill: KillDrillReport,
}

/// Per-node service config: identical nodes, ambient chaos config shared
/// with the oracle so deterministic fault draws agree.
fn node_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        caching: true,
        sites_seed: seed,
        ..ServiceConfig::default()
    }
}

/// Build a started fleet of `n` nodes with the bench corpus subset
/// registered through the fleet's op log.
fn build_fleet(
    params: &FleetBenchParams,
    n: usize,
    corpus: &[(String, std::sync::Arc<Vec<u8>>, String)],
) -> Fleet {
    let cfg = FleetConfig {
        replication: params.replication,
        ..FleetConfig::default()
    };
    let seed = params.stream.seed;
    let mut fleet = Fleet::with_factory(cfg, n, |_| PredictService::new(node_config(seed)));
    for (name, image, home) in corpus {
        fleet
            .register_binary(name, image.clone(), home)
            .expect("rank-prefixed names are unique");
    }
    fleet.start();
    fleet
}

/// Raised-cosine diurnal think time for stream position `i`: zero at
/// "noon" (offered load peaks), `think_max_us` at "midnight".
fn think_us(params: &FleetBenchParams, i: usize) -> u64 {
    if params.think_max_us == 0 || params.diurnal_period == 0 {
        return 0;
    }
    let phase = (i % params.diurnal_period) as f64 / params.diurnal_period as f64;
    let trough = 0.5 * (1.0 + (2.0 * std::f64::consts::PI * phase).cos());
    (params.think_max_us as f64 * trough) as u64
}

/// Outcome of one answered request, indexed by stream position.
#[derive(Clone)]
struct Answered {
    fingerprint: String,
    latency_us: u64,
    failovers: u32,
    degraded: bool,
}

struct StreamOutcome {
    /// `None` = shed (no node could serve).
    results: Vec<Option<Answered>>,
    wall_seconds: f64,
}

/// Kill `node` when the stream reaches `kill_at`, revive at `revive_at`.
#[derive(Clone, Copy)]
struct KillScript {
    node: usize,
    kill_at: usize,
    revive_at: usize,
}

/// Run `n` requests of the seeded stream against the fleet from
/// `params.clients` closed-loop client threads. The client that draws
/// stream index `kill_at` executes the kill before issuing — the drill
/// timing is positional, not wall-clock.
fn run_stream(
    fleet: &Fleet,
    params: &FleetBenchParams,
    n: usize,
    script: Option<KillScript>,
) -> StreamOutcome {
    let names = fleet.node_service(0).binary_names();
    let sites = fleet.node_service(0).site_names();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Answered>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let shed = AtomicU64::new(0);
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..params.clients.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                if let Some(s) = script {
                    if i == s.kill_at {
                        fleet.kill_node(s.node);
                    } else if i == s.revive_at {
                        fleet.revive_node(s.node);
                    }
                }
                let pause = think_us(params, i);
                if pause > 0 {
                    std::thread::sleep(Duration::from_micros(pause));
                }
                let req = stream_request(&params.stream, &names, &sites, i);
                match fleet.predict(&req) {
                    Ok(resp) => {
                        *results[i].lock().expect("result slot") = Some(Answered {
                            fingerprint: fingerprint(&req, &resp.response.prediction),
                            latency_us: resp.response.latency_us,
                            failovers: resp.failovers,
                            degraded: resp.degraded_route,
                        });
                    }
                    Err(_) => {
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    StreamOutcome {
        results: results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot"))
            .collect(),
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

fn phase_stats(results: &[Option<Answered>]) -> PhaseStats {
    let mut latencies: Vec<u64> = Vec::new();
    let mut stats = PhaseStats {
        issued: results.len() as u64,
        ..PhaseStats::default()
    };
    for slot in results {
        match slot {
            Some(a) => {
                stats.answered += 1;
                latencies.push(a.latency_us);
                stats.failovers += a.failovers as u64;
                stats.degraded_routes += u64::from(a.degraded);
            }
            None => stats.shed += 1,
        }
    }
    latencies.sort_unstable();
    stats.p50_us = percentile(&latencies, 0.50);
    stats.p99_us = percentile(&latencies, 0.99);
    stats
}

/// The single-node oracle: evaluate each distinct (binary, site, mode)
/// once on an identically configured lone service and fingerprint it.
fn oracle_fingerprints(
    params: &FleetBenchParams,
    corpus: &[(String, std::sync::Arc<Vec<u8>>, String)],
    n: usize,
) -> Vec<String> {
    let mut svc = PredictService::new(node_config(params.stream.seed));
    for (name, image, home) in corpus {
        svc.register_binary(name, RegisteredBinary::new(image.clone(), home))
            .expect("oracle registry mirrors the fleet's");
    }
    svc.start();
    let names = svc.binary_names();
    let sites = svc.site_names();
    (0..n)
        .map(|i| {
            let req = stream_request(&params.stream, &names, &sites, i);
            let resp = svc.predict(&req).expect("oracle answers everything");
            fingerprint(&req, &resp.prediction)
        })
        .collect()
}

/// Run the full fleet benchmark: scale-out curve, then the kill drill.
pub fn fleet_bench(seed: u64, quick: bool) -> FleetBenchReport {
    let params = if quick {
        FleetBenchParams::quick(seed)
    } else {
        FleetBenchParams::standard(seed)
    };
    let corpus = crate::serve::bench_corpus(&crate::Experiment::new(seed), params.stream.binaries);

    let mut scale_out = Vec::new();
    for &nodes in &params.scale_points {
        let fleet = build_fleet(&params, nodes, &corpus);
        let out = run_stream(&fleet, &params, params.scale_requests, None);
        let stats = phase_stats(&out.results);
        scale_out.push(ScalePoint {
            nodes,
            requests: stats.issued,
            answered: stats.answered,
            shed: stats.shed,
            wall_seconds: out.wall_seconds,
            throughput_rps: if out.wall_seconds > 0.0 {
                stats.answered as f64 / out.wall_seconds
            } else {
                0.0
            },
            p50_us: stats.p50_us,
            p99_us: stats.p99_us,
        });
    }

    // Kill drill: 4 nodes, kill the first replica of the hottest key's
    // set at 1/3 of the stream, revive at 2/3.
    let drill_nodes = 4;
    let fleet = build_fleet(&params, drill_nodes, &corpus);
    let names = fleet.node_service(0).binary_names();
    let hottest = &names[0]; // rank 0 carries the Zipf head
    let victim = fleet
        .replica_set(hottest, &fleet.node_service(0).site_names()[0])
        .expect("registered")[0];
    let n = params.drill_requests;
    let script = KillScript {
        node: victim,
        kill_at: n / 3,
        revive_at: 2 * n / 3,
    };
    let out = run_stream(&fleet, &params, n, Some(script));

    let before = phase_stats(&out.results[..script.kill_at]);
    let during = phase_stats(&out.results[script.kill_at..script.revive_at]);
    let after = phase_stats(&out.results[script.revive_at..]);

    let oracle = oracle_fingerprints(&params, &corpus, n);
    let wrong_answers = out
        .results
        .iter()
        .zip(&oracle)
        .filter(|(slot, expect)| slot.as_ref().is_some_and(|a| &a.fingerprint != *expect))
        .count() as u64;

    let issued = (before.issued + during.issued + after.issued).max(1);
    let answered = before.answered + during.answered + after.answered;
    let steady_p99 = before.p99_us.max(after.p99_us).max(1);

    FleetBenchReport {
        seed,
        quick,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        scale_out,
        kill_drill: KillDrillReport {
            nodes: drill_nodes,
            replication: params.replication,
            killed_node: victim,
            availability: answered as f64 / issued as f64,
            availability_during: during.answered as f64 / during.issued.max(1) as f64,
            wrong_answers,
            equivalent: wrong_answers == 0,
            p99_inflation_during: during.p99_us as f64 / steady_p99 as f64,
            before,
            during,
            after,
        },
    }
}

/// Human-readable report.
pub fn render_fleet(report: &FleetBenchReport) -> String {
    let mut out = String::new();
    out.push_str("FLEET BENCHMARK (sharded serving, Zipf + diurnal closed loop)\n");
    out.push_str(&format!(
        "  scale-out ({} core{}, {} build):\n",
        report.cores,
        if report.cores == 1 { "" } else { "s" },
        report.profile
    ));
    for p in &report.scale_out {
        out.push_str(&format!(
            "    {} node{}  {:>5} reqs  {:>9.1} req/s  p50 {:>8}us  p99 {:>8}us  shed {}\n",
            p.nodes,
            if p.nodes == 1 { " " } else { "s" },
            p.answered,
            p.throughput_rps,
            p.p50_us,
            p.p99_us,
            p.shed,
        ));
    }
    let d = &report.kill_drill;
    out.push_str(&format!(
        "  kill drill: {} nodes R={}, node {} down for the middle third\n",
        d.nodes, d.replication, d.killed_node
    ));
    for (label, phase) in [
        ("before", &d.before),
        ("during", &d.during),
        ("after", &d.after),
    ] {
        out.push_str(&format!(
            "    {label:<7} {:>5} reqs  p50 {:>8}us  p99 {:>8}us  shed {}  failovers {}  degraded {}\n",
            phase.answered, phase.p50_us, phase.p99_us, phase.shed, phase.failovers,
            phase.degraded_routes,
        ));
    }
    out.push_str(&format!(
        "    availability {:.2}% overall, {:.2}% during the outage; p99 inflation {:.2}x\n",
        100.0 * d.availability,
        100.0 * d.availability_during,
        d.p99_inflation_during,
    ));
    out.push_str(&format!(
        "    answers {} vs single-node oracle ({} wrong)\n",
        if d.equivalent {
            "byte-identical"
        } else {
            "DIVERGED"
        },
        d.wrong_answers,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_curve_peaks_at_midnight_and_vanishes_at_noon() {
        let params = FleetBenchParams::quick(1);
        assert_eq!(think_us(&params, 0), params.think_max_us, "midnight");
        let noon = params.diurnal_period / 2;
        assert!(think_us(&params, noon) <= 1, "noon is full speed");
        // Periodic: one full day later, same think time.
        assert_eq!(
            think_us(&params, 7),
            think_us(&params, 7 + params.diurnal_period)
        );
    }

    #[test]
    fn render_fleet_is_stable_shape() {
        let phase = PhaseStats {
            issued: 100,
            answered: 99,
            shed: 1,
            p50_us: 100,
            p99_us: 900,
            failovers: 3,
            degraded_routes: 0,
        };
        let report = FleetBenchReport {
            seed: 1,
            quick: true,
            cores: 2,
            profile: "release",
            scale_out: vec![ScalePoint {
                nodes: 2,
                requests: 100,
                answered: 100,
                shed: 0,
                wall_seconds: 1.0,
                throughput_rps: 100.0,
                p50_us: 80,
                p99_us: 400,
            }],
            kill_drill: KillDrillReport {
                nodes: 4,
                replication: 2,
                killed_node: 1,
                before: phase.clone(),
                during: phase.clone(),
                after: phase,
                availability: 0.99,
                availability_during: 0.99,
                wrong_answers: 0,
                equivalent: true,
                p99_inflation_during: 1.2,
            },
        };
        let s = render_fleet(&report);
        assert!(s.contains("scale-out"));
        assert!(s.contains("kill drill"));
        assert!(s.contains("byte-identical"));
        assert!(s.contains("availability 99.00%"));
    }
}
