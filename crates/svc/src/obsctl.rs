//! The `feam obs` driver: run a seeded, observed workload against a
//! serving-grade recorder, snapshot the windowed metrics, evaluate the
//! SLO monitors, and surface tail exemplars.
//!
//! This is the harness behind `feam obs snapshot` and `feam obs check
//! --slo`. It builds a [`PredictService`] over the standard simulated
//! sites with a [`Recorder::serving`] recorder, registers a handful of
//! deterministic demo binaries, replays the serve bench's Zipf stream
//! ([`crate::bench::run_stream`]) against it, and reads everything
//! back: a [`MetricsSnapshot`] with SLO evaluations and exemplar
//! summaries filled in.
//!
//! Fault injection is explicit: [`ObsRunParams::fault_plan`] is threaded
//! into the service untouched, so `None` inherits the ambient
//! `FEAM_CHAOS_RATE` plan (the CLI path — chaos in the environment shows
//! up in the SLO verdict) while tests pin [`FaultPlan::none`] or an
//! explicit [`FaultPlan::chaos`] for determinism either way.

use std::sync::Arc;

use feam_obs::slo::{evaluate_all, worst_state};
use feam_obs::{
    MetricsSnapshot, NullSink, Recorder, SloEvaluation, SloKind, SloSpec, SloState, WindowSpec,
};
use feam_sim::faults::FaultPlan;

use crate::bench::{run_stream, StreamParams};
use crate::registry::demo_binary;
use crate::service::{PredictService, ServiceConfig};

/// Parameters for one observed run.
#[derive(Debug, Clone)]
pub struct ObsRunParams {
    /// Master seed: request stream, site simulation, and demo binaries.
    pub seed: u64,
    /// Requests replayed against the service.
    pub requests: usize,
    /// Distinct demo binaries registered (and in the Zipf distribution).
    pub binaries: usize,
    /// Explicit fault plan; `None` inherits the ambient `FEAM_CHAOS_*`
    /// plan. Tests pass `Some` to be deterministic under any environment.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Sliding-window geometry for the metrics registry.
    pub window: WindowSpec,
    /// Tail-exemplar store capacity.
    pub exemplar_cap: usize,
}

impl ObsRunParams {
    /// The default `feam obs` configuration.
    pub fn standard(seed: u64) -> Self {
        ObsRunParams {
            seed,
            requests: 1200,
            binaries: 12,
            fault_plan: None,
            window: WindowSpec::default(),
            exemplar_cap: 8,
        }
    }

    /// A smaller run for tests and `--quick`.
    pub fn quick(seed: u64) -> Self {
        ObsRunParams {
            requests: 300,
            binaries: 6,
            ..Self::standard(seed)
        }
    }
}

/// Everything an observed run produced.
pub struct ObsRunOutcome {
    /// The serving recorder (registry and exemplar store still live, so
    /// callers can re-snapshot or re-evaluate).
    pub recorder: Recorder,
    /// Windowed snapshot over the full window horizon, with `slos` and
    /// `exemplars` filled in.
    pub snapshot: MetricsSnapshot,
    /// The SLO evaluations (same as `snapshot.slos`).
    pub evaluations: Vec<SloEvaluation>,
    /// Worst state across `evaluations` — the exit-code driver for
    /// `feam obs check --slo`.
    pub worst: SloState,
}

/// The default SLO set for the FEAM prediction service.
///
/// The fault-rate objective is the deterministic chaos pager: ambient
/// chaos ([`FaultPlan::chaos`]) is transient-only and the phases retry
/// through it, so degraded responses stay near zero even at high fault
/// rates — but every injected fault increments `faults.injected`, so the
/// fault/response ratio rises with `FEAM_CHAOS_RATE` no matter how well
/// the retries mask it.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "cached-latency".into(),
            kind: SloKind::LatencyBudget {
                metric: "svc.latency_us".into(),
                threshold: 2_000_000,
                allowed_fraction: 0.02,
            },
            short_ms: 10_000,
            long_ms: 60_000,
            warn_burn: 2.0,
            page_burn: 10.0,
        },
        SloSpec {
            name: "fault-rate".into(),
            kind: SloKind::RatioBudget {
                bad: "faults.injected".into(),
                total: "svc.responses".into(),
                allowed_fraction: 0.002,
            },
            short_ms: 10_000,
            long_ms: 60_000,
            warn_burn: 2.0,
            page_burn: 10.0,
        },
        SloSpec {
            name: "degraded-rate".into(),
            kind: SloKind::RatioBudget {
                bad: "svc.response.degraded".into(),
                total: "svc.responses".into(),
                allowed_fraction: 0.02,
            },
            short_ms: 10_000,
            long_ms: 60_000,
            warn_burn: 2.0,
            page_burn: 10.0,
        },
        SloSpec {
            name: "shed-rate".into(),
            kind: SloKind::RatioBudget {
                bad: "queue.shed".into(),
                total: "svc.requests".into(),
                allowed_fraction: 0.05,
            },
            short_ms: 10_000,
            long_ms: 60_000,
            warn_burn: 2.0,
            page_burn: 10.0,
        },
    ]
}

/// Run the observed workload and evaluate `slos` against what it
/// recorded.
pub fn run_observed(params: &ObsRunParams, slos: &[SloSpec]) -> ObsRunOutcome {
    let recorder = Recorder::serving(Box::new(NullSink), params.window, params.exemplar_cap);
    let mut svc = PredictService::new(ServiceConfig {
        recorder: recorder.clone(),
        fault_plan: params.fault_plan.clone(),
        sites_seed: params.seed,
        ..ServiceConfig::default()
    });
    for i in 0..params.binaries {
        svc.register_binary(&format!("bin-{i:02}"), demo_binary(params.seed + i as u64))
            .expect("fresh names cannot collide");
    }
    svc.start();

    let stream = StreamParams {
        seed: params.seed,
        binaries: params.binaries,
        zipf_s: 1.5,
        extended_share: 0.3,
    };
    run_stream(&svc, &stream, params.requests, 32, |_, _, _| {});
    drop(svc);

    let horizon_ms = params.window.slots as u64 * params.window.slot_ms;
    let mut snapshot = recorder
        .metrics_snapshot(horizon_ms)
        .expect("serving recorder always snapshots");
    let registry = recorder.registry().expect("serving recorder");
    let evaluations = evaluate_all(slos, &registry, recorder.now_ms());
    snapshot.slos = evaluations.clone();
    let worst = worst_state(&evaluations);
    ObsRunOutcome {
        recorder,
        snapshot,
        evaluations,
        worst,
    }
}
