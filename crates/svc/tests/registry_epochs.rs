//! Registry generation edge cases: a binding updated while an evaluation
//! is in flight must never publish the stale result; an update after a
//! shed request must leave the service fully functional; and a
//! `ContentChanged` rejection racing a coalesced waiter must not disturb
//! the flight the waiter joined.
//!
//! All three tests submit against an *unstarted* service so the race
//! windows are deterministic: the job sits in the queue while the test
//! interleaves the registry operation, then `start()` releases the
//! workers.

use feam_core::predict::PredictionMode;
use feam_svc::registry::demo_binary;
use feam_svc::{
    Delivery, PredictRequest, PredictService, RegisteredBinary, ServiceConfig, SvcError,
};

fn test_service(queue_capacity: usize) -> (PredictService, std::sync::Arc<feam_obs::MemorySink>) {
    let (recorder, sink) = feam_obs::Recorder::memory();
    let cfg = ServiceConfig {
        workers: 1,
        queue_capacity,
        result_cache: true,
        caching: true,
        recorder,
        fault_plan: Some(std::sync::Arc::new(feam_sim::faults::FaultPlan::none())),
        ..ServiceConfig::default()
    };
    (PredictService::new(cfg), sink)
}

fn basic(binary_ref: &str, target_site: &str) -> PredictRequest {
    PredictRequest {
        binary_ref: binary_ref.to_string(),
        target_site: target_site.to_string(),
        mode: PredictionMode::Basic,
        deadline: None,
    }
}

#[test]
fn update_during_inflight_evaluation_drops_the_stale_result() {
    let (mut svc, _sink) = test_service(16);
    svc.register_binary("app", demo_binary(5)).unwrap();
    let site = svc.site_names()[0].clone();

    // Queue an evaluation for generation 0, then update the binding
    // before any worker exists: the flight is now stale by construction.
    let rx = match svc.submit(&basic("app", &site)).unwrap() {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("no worker has run; nothing can be cached yet"),
    };
    let generation = svc.update_binary("app", demo_binary(6));
    assert_eq!(generation, 1, "update bumps the generation");

    svc.start();
    let resp = rx
        .recv()
        .expect("the stale flight still answers its waiter")
        .expect("deadline-free request is never shed post-admission");
    assert!(!resp.from_result_cache);

    // The stale evaluation must not have been memoized: the next request
    // (same name, new bytes) evaluates fresh rather than hitting a cache
    // entry, and the one after that hits the cache filled by *it*.
    let evals_before = svc.evaluations();
    let first = svc.predict(&basic("app", &site)).unwrap();
    assert!(
        !first.from_result_cache,
        "updated binding must evaluate fresh, not reuse the stale flight's result"
    );
    assert_eq!(svc.evaluations(), evals_before + 1);
    let second = svc.predict(&basic("app", &site)).unwrap();
    assert!(second.from_result_cache, "the fresh result is memoized");
    let snapshot = svc.recorder().snapshot();
    assert_eq!(
        snapshot.counters.get("svc.stale_result_dropped"),
        Some(&1),
        "the guard must have fired exactly once"
    );
}

#[test]
fn update_after_a_shed_request_leaves_the_service_functional() {
    let (mut svc, _sink) = test_service(1);
    svc.register_binary("a", demo_binary(5)).unwrap();
    svc.register_binary("b", demo_binary(6)).unwrap();
    let site = svc.site_names()[0].clone();

    // Fill the single queue slot, then shed a request for "b".
    let rx_a = match svc.submit(&basic("a", &site)).unwrap() {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("queue is empty and no worker has run"),
    };
    let shed = svc.submit(&basic("b", &site));
    assert!(
        matches!(shed, Err(SvcError::Overloaded { queue_depth: 1 })),
        "{shed:?}"
    );

    // The shed request left no in-flight entry behind: updating "b" and
    // evaluating it afterwards works normally.
    let generation = svc.update_binary("b", demo_binary(7));
    assert_eq!(generation, 1);
    svc.start();
    assert!(rx_a.recv().is_ok(), "queued request still completes");
    let first = svc.predict(&basic("b", &site)).unwrap();
    assert!(!first.from_result_cache);
    let second = svc.predict(&basic("b", &site)).unwrap();
    assert!(
        second.from_result_cache,
        "post-update evaluations are memoized — the shed didn't wedge the flight table"
    );
    let snapshot = svc.recorder().snapshot();
    assert_eq!(snapshot.counters.get("queue.shed"), Some(&1));
    assert_eq!(
        snapshot.counters.get("svc.stale_result_dropped"),
        None,
        "the shed request never evaluated, so nothing stale was dropped"
    );
}

#[test]
fn content_changed_rejection_racing_a_coalesced_waiter() {
    let (mut svc, _sink) = test_service(16);
    let original = demo_binary(5);
    let original_image = original.image.clone();
    svc.register_binary("app", original).unwrap();
    let site = svc.site_names()[0].clone();

    // Two waiters coalesce onto one queued flight.
    let rx1 = match svc.submit(&basic("app", &site)).unwrap() {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("nothing cached yet"),
    };
    let rx2 = match svc.submit(&basic("app", &site)).unwrap() {
        Delivery::Pending(rx) => rx,
        Delivery::Ready(_) => panic!("second submit must coalesce, not hit a cache"),
    };

    // A racing re-registration with different bytes is rejected...
    let rejected = svc.register_binary("app", demo_binary(6));
    assert!(
        matches!(rejected, Err(SvcError::ContentChanged { ref name }) if name == "app"),
        "{rejected:?}"
    );
    // ...and the same bytes are an idempotent no-op.
    svc.register_binary("app", RegisteredBinary::new(original_image, "ranger"))
        .unwrap();
    assert_eq!(
        svc.binary_generation("app"),
        Some(0),
        "rejection must not bump"
    );

    svc.start();
    let r1 = rx1
        .recv()
        .expect("first waiter answered")
        .expect("answered");
    let r2 = rx2
        .recv()
        .expect("coalesced waiter answered")
        .expect("answered");
    assert_eq!(
        format!("{:?}", r1.prediction),
        format!("{:?}", r2.prediction),
        "both waiters see the same evaluation of the original bytes"
    );
    assert_eq!(svc.evaluations(), 1, "one flight served both waiters");
    let snapshot = svc.recorder().snapshot();
    assert_eq!(snapshot.counters.get("svc.coalesced"), Some(&1));
    // The undisturbed flight's result was cached for the original bytes.
    let third = svc.predict(&basic("app", &site)).unwrap();
    assert!(third.from_result_cache);
}
