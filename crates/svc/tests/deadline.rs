//! Deadline propagation on the single-node service: a request whose
//! deadline expires while it sits in the admission queue is shed at
//! dequeue with the distinct [`SvcError::DeadlineExceeded`] — never
//! silently evaluated — while coalesced waiters with live deadlines still
//! get their answer from the same flight.

use feam_core::predict::PredictionMode;
use feam_obs::Recorder;
use feam_sim::faults::FaultPlan;
use feam_svc::{Delivery, PredictRequest, PredictService, ServiceConfig, SvcError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_service() -> (PredictService, Arc<feam_obs::MemorySink>) {
    let (recorder, sink) = Recorder::memory();
    let cfg = ServiceConfig {
        workers: 1,
        recorder,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    let svc = PredictService::new(cfg);
    svc.register_binary("app", feam_svc::registry::demo_binary(7))
        .expect("fresh name registers");
    (svc, sink)
}

fn req(deadline: Option<Instant>) -> PredictRequest {
    PredictRequest {
        binary_ref: "app".into(),
        target_site: "india".into(),
        mode: PredictionMode::Basic,
        deadline,
    }
}

/// An already-expired request queued against an unstarted service is shed
/// when a worker finally dequeues it: `Err(DeadlineExceeded)` on the
/// pending channel, zero evaluations, and the deadline counters fired.
#[test]
fn expired_request_is_shed_at_dequeue_not_evaluated() {
    let (mut svc, _sink) = test_service();
    let expired = Instant::now() - Duration::from_millis(1);
    let rx = match svc.submit(&req(Some(expired))).expect("admitted") {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("cold cache cannot answer immediately"),
    };
    svc.start();
    let err = rx
        .recv()
        .expect("shed requests still answer their waiter")
        .expect_err("expired request must not be evaluated");
    assert_eq!(err, SvcError::DeadlineExceeded);
    assert!(
        !err.retryable(),
        "an expired deadline is not cured by retrying as-is"
    );

    // The flight was dropped without running the phases.
    // Quiesce: a follow-up unbounded request proves the worker is alive
    // and orders the assertion after the shed was processed.
    let resp = svc.predict(&req(None)).expect("unbounded request answers");
    assert!(!resp.prediction.verdicts.is_empty());
    assert_eq!(
        svc.evaluations(),
        1,
        "only the follow-up evaluated; the expired flight never ran"
    );
    let counters = svc.recorder().snapshot().counters;
    assert_eq!(counters.get("svc.deadline.shed"), Some(&1));
    assert_eq!(counters.get("svc.deadline.flight_dropped"), Some(&1));
}

/// Coalesced waiters keep individual deadlines: on one flight, the
/// expired waiter is shed at dequeue while the live one is evaluated and
/// answered — one evaluation total.
#[test]
fn coalesced_waiters_shed_individually() {
    let (mut svc, _sink) = test_service();
    let expired = Instant::now() - Duration::from_millis(1);
    let rx_expired = match svc.submit(&req(Some(expired))).expect("admitted") {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("cold cache cannot answer immediately"),
    };
    let rx_live = match svc.submit(&req(None)).expect("coalesces") {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("must coalesce onto the queued flight"),
    };
    svc.start();
    let shed = rx_expired.recv().expect("answered");
    assert!(matches!(shed, Err(SvcError::DeadlineExceeded)), "{shed:?}");
    let resp = rx_live
        .recv()
        .expect("answered")
        .expect("live waiter gets the evaluation");
    assert!(!resp.prediction.verdicts.is_empty());
    assert_eq!(svc.evaluations(), 1, "one flight served the live waiter");
    let counters = svc.recorder().snapshot().counters;
    assert_eq!(counters.get("svc.deadline.shed"), Some(&1));
    assert_eq!(
        counters.get("svc.deadline.flight_dropped"),
        None,
        "a flight with a live waiter is not dropped"
    );
}

/// A result-cache hit answers instantly regardless of deadline — the work
/// is already done, so there is nothing to shed.
#[test]
fn cache_hits_answer_even_with_expired_deadlines() {
    if !feam_core::cache::caching_enabled_from_env() {
        return; // FEAM_CACHE=0 run: there are no cache hits to assert on
    }
    let (mut svc, _sink) = test_service();
    svc.start();
    let warm = svc.predict(&req(None)).expect("warms the result cache");
    assert!(!warm.from_result_cache);
    let expired = Instant::now() - Duration::from_millis(1);
    let hit = svc
        .predict(&req(Some(expired)))
        .expect("cache hit beats the deadline check");
    assert!(hit.from_result_cache);
}

/// The distinct error is distinguishable from every other rejection in
/// both variant and message.
#[test]
fn deadline_error_is_distinct() {
    let e = SvcError::DeadlineExceeded;
    assert_ne!(e, SvcError::ShuttingDown);
    assert!(e.to_string().contains("deadline"));
}
