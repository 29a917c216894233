//! End-to-end SLO monitoring: the `feam obs check` harness run in-process.
//!
//! Fault plans are pinned explicitly (never inherited from the ambient
//! `FEAM_CHAOS_RATE`), so both halves are deterministic under the chaos
//! CI job: a clean run must come out all-Ok, and a chaos-injected run
//! must page the fault-rate objective with a tail exemplar naming an
//! injected fault.
//!
//! The fault-rate objective is the part worth pinning: ambient chaos is
//! transient-only and the phases retry through it, so degraded responses
//! stay near zero no matter the rate — the monitor has to catch the
//! injected faults themselves, not their (masked) effect on predictions.

use feam_obs::SloState;
use feam_sim::faults::FaultPlan;
use feam_svc::obsctl::{default_slos, run_observed, ObsRunParams};
use std::sync::Arc;

#[test]
fn clean_run_satisfies_every_default_slo() {
    let mut params = ObsRunParams::quick(11);
    params.fault_plan = Some(Arc::new(FaultPlan::none()));
    let outcome = run_observed(&params, &default_slos());
    assert_eq!(outcome.worst, SloState::Ok, "{:?}", outcome.evaluations);
    for e in &outcome.evaluations {
        assert_eq!(e.state, SloState::Ok, "{} burned: {}", e.name, e.detail);
    }
    // The serving plane still observed real traffic.
    let snap = &outcome.snapshot;
    assert!(
        snap.counters
            .get("svc.responses")
            .map(|c| c.total)
            .unwrap_or(0)
            >= params.requests as u64,
        "every request answered"
    );
    assert!(
        snap.histograms.contains_key("svc.latency_us"),
        "latency histogram populated"
    );
    assert!(
        snap.histograms.contains_key("svc.queue.wait_us"),
        "queue wait histogram populated"
    );
    assert!(!snap.exemplars.is_empty(), "tail exemplars captured");
    assert!(
        snap.exemplars.iter().all(|e| e.faults.is_empty()),
        "no faults were injected, none may be reported"
    );
}

#[test]
fn chaos_run_pages_the_fault_rate_slo_with_a_fault_naming_exemplar() {
    let mut params = ObsRunParams::quick(11);
    params.fault_plan = Some(Arc::new(FaultPlan::chaos(11, 0.2)));
    let outcome = run_observed(&params, &default_slos());
    assert_eq!(outcome.worst, SloState::Page);
    let fault_rate = outcome
        .evaluations
        .iter()
        .find(|e| e.name == "fault-rate")
        .expect("default set includes fault-rate");
    assert_eq!(
        fault_rate.state,
        SloState::Page,
        "injected faults must page: {}",
        fault_rate.detail
    );
    assert!(fault_rate.short_burn > 10.0 && fault_rate.long_burn > 10.0);
    // The snapshot carries the verdicts (what `feam obs check --json` and
    // the Prometheus exposition serve).
    assert_eq!(outcome.snapshot.slos, outcome.evaluations);
    // At least one tail exemplar names an injected fault chokepoint: the
    // span tree of a slow request leads straight to what was injected
    // into it.
    let with_fault = outcome
        .snapshot
        .exemplars
        .iter()
        .find(|e| !e.faults.is_empty())
        .expect("a tail exemplar names the injected fault");
    assert!(
        with_fault.spans.iter().any(|s| s == "svc.eval"),
        "exemplar carries the request's span tree: {:?}",
        with_fault.spans
    );
    let known = [
        "vfs_read",
        "description_file",
        "module_db",
        "probe_compile",
        "daemon_spawn",
    ];
    assert!(
        with_fault
            .faults
            .iter()
            .all(|f| known.contains(&f.as_str())),
        "fault names are chokepoints: {:?}",
        with_fault.faults
    );
}
