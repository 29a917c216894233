//! Where a computed read runs. A flight's task waits in the pool's FIFO
//! until a pool thread dequeues it or a waiter's `Pending::recv` claims it
//! and runs it on the waiting thread. A lone closed-loop read therefore
//! evaluates on its caller; a fan-out still spreads over the pool; and a
//! handle nobody receives, or a full queue a caller keeps retrying, still
//! gets its flight run.
//!
//! A recorder sink notes the name of the thread each `svc.eval` span
//! opens on.

use feam_core::predict::PredictionMode;
use feam_obs::{Event, EventKind, Recorder, Sink};
use feam_sim::faults::FaultPlan;
use feam_svc::plan::plan_batch;
use feam_svc::{Delivery, Pending, PlanRequest, PredictRequest, PredictService, ServiceConfig};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Names of the threads `svc.eval` spans opened on, in order.
#[derive(Clone, Default)]
struct EvalThreads(Arc<Mutex<Vec<String>>>);

impl Sink for EvalThreads {
    fn record(&self, event: &Event) {
        if event.kind == EventKind::SpanStart && event.name == "svc.eval" {
            let name = std::thread::current().name().unwrap_or("").to_string();
            self.0.lock().unwrap().push(name);
        }
    }
}

impl EvalThreads {
    fn names(&self) -> Vec<String> {
        self.0.lock().unwrap().clone()
    }
}

/// [`EvalThreads`] that holds an evaluation opened off the pool until a
/// pool thread has opened one too (at most 10 s), so a caller cannot
/// drain a whole fan-out before the woken pool threads are scheduled.
struct HoldCallersUntilPool(EvalThreads);

impl Sink for HoldCallersUntilPool {
    fn record(&self, event: &Event) {
        self.0.record(event);
        if event.kind != EventKind::SpanStart || event.name != "svc.eval" {
            return;
        }
        let on_pool = |n: &String| n.starts_with("feam-svc-");
        let give_up = Instant::now() + Duration::from_secs(10);
        while !self.0.names().iter().any(on_pool) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A config whose recorder notes the thread of every evaluation, with
/// chaos pinned off.
fn config(workers: usize, caching: bool) -> (ServiceConfig, EvalThreads) {
    let threads = EvalThreads::default();
    let cfg = ServiceConfig {
        workers,
        caching,
        result_cache: caching,
        recorder: Recorder::with_sink(Box::new(threads.clone())),
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    (cfg, threads)
}

/// An unstarted service over `cfg` with the demo binary as "app".
fn with_app(cfg: ServiceConfig) -> PredictService {
    let svc = PredictService::new(cfg);
    svc.register_binary("app", feam_svc::registry::demo_binary(7))
        .expect("fresh name registers");
    svc
}

fn service(workers: usize, caching: bool) -> (PredictService, EvalThreads) {
    let (cfg, threads) = config(workers, caching);
    (with_app(cfg), threads)
}

fn req(site: &str, mode: PredictionMode) -> PredictRequest {
    PredictRequest {
        binary_ref: "app".into(),
        target_site: site.into(),
        mode,
        deadline: None,
    }
}

fn pending(svc: &PredictService, req: &PredictRequest) -> Pending {
    match svc.submit(req).expect("admitted") {
        Delivery::Pending(p) => p,
        Delivery::Ready(_) => panic!("a cold key cannot be answered from the cache"),
    }
}

/// Start the pool and give its threads time to park on the empty FIFO.
/// Nothing outside the pool can see a parked thread, so this sleeps; a
/// thread that had not parked yet would find a deferred task on its own.
fn start_and_settle(svc: &mut PredictService) {
    svc.start();
    std::thread::sleep(Duration::from_millis(50));
}

/// (a) With the one worker parked, each closed-loop computed read runs its
/// evaluation on the thread that waits for it: no pool wake at all.
#[test]
fn a_closed_loop_computed_read_evaluates_on_the_caller() {
    let (mut svc, threads) = service(1, true);
    start_and_settle(&mut svc);
    let svc = Arc::new(svc);
    let client = svc.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("closed-loop-client".into())
        .spawn(move || {
            let mut computed = 0;
            for site in client.site_names() {
                for mode in [PredictionMode::Basic, PredictionMode::Extended] {
                    let resp = client.predict(&req(&site, mode)).expect("answers");
                    assert!(!resp.from_result_cache, "each key is read once");
                    computed += 1;
                }
            }
            let _ = tx.send(computed);
        })
        .expect("spawn client");
    let computed = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("every read is answered");
    let names = threads.names();
    assert_eq!(names.len(), computed, "one evaluation per computed read");
    assert!(
        names.iter().all(|n| n == "closed-loop-client"),
        "every evaluation ran on its caller: {names:?}"
    );
}

/// (b) A plan fans its pairs out over the pool: at least one pair is
/// evaluated on a pool thread, and the rankings equal a cache-off twin's.
/// The sink holds the planner's claimed pairs until a pool thread has
/// started one, so the check does not depend on scheduling.
#[test]
fn a_plan_fan_out_still_runs_on_pool_threads() {
    let (mut cfg, threads) = config(2, true);
    cfg.recorder = Recorder::with_sink(Box::new(HoldCallersUntilPool(threads.clone())));
    let mut svc = with_app(cfg);
    svc.register_binary("other", feam_svc::registry::demo_binary(11))
        .expect("fresh name registers");
    start_and_settle(&mut svc);
    let (mut twin, _) = service(1, false);
    twin.register_binary("other", feam_svc::registry::demo_binary(11))
        .expect("fresh name registers");
    twin.start();

    let reqs = [
        PlanRequest::all_sites("app"),
        PlanRequest::all_sites("other"),
    ];
    let pairs = reqs.len() * svc.site_names().len();
    assert!(pairs >= 4, "the plan fans out over {pairs} pairs");
    let plans = plan_batch(&svc, &reqs);
    let oracle = plan_batch(&twin, &reqs);
    for (plan, oracle) in plans.iter().zip(&oracle) {
        let plan = plan.as_ref().expect("plans");
        let oracle = oracle.as_ref().expect("twin plans");
        assert_eq!(plan.fingerprint(), oracle.fingerprint());
    }
    let names = threads.names();
    assert_eq!(names.len(), pairs, "one evaluation per pair");
    assert!(
        names.iter().any(|n| n.starts_with("feam-svc-")),
        "no pair ran on a pool thread: {names:?}"
    );
}

/// (c) A coalesced waiter that receives first runs the flight on its own
/// thread while the leader still holds its handle; both get the one
/// answer. The service is never started, so only a claim can run it.
#[test]
fn a_coalesced_waiter_runs_the_flight_the_leader_holds() {
    let (svc, threads) = service(1, true);
    let svc = Arc::new(svc);
    let read = req("india", PredictionMode::Basic);
    let leader = pending(&svc, &read);

    let (tx, rx) = mpsc::channel();
    let waiter_svc = svc.clone();
    let waiter_read = read.clone();
    std::thread::Builder::new()
        .name("coalesced-waiter".into())
        .spawn(move || {
            let handle = pending(&waiter_svc, &waiter_read);
            let _ = tx.send(handle.recv());
        })
        .expect("spawn waiter");
    let waited = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the waiter's recv runs the flight")
        .expect("answered")
        .expect("evaluated");
    assert_eq!(threads.names(), ["coalesced-waiter"]);

    let led = leader.recv().expect("answered").expect("evaluated");
    assert!(
        Arc::ptr_eq(&led.answer, &waited.answer),
        "one answer, shared"
    );
    assert_eq!(svc.evaluations(), 1);
    assert_eq!(
        svc.recorder().snapshot().counters.get("svc.coalesced"),
        Some(&1)
    );
}

/// (d) A handle dropped unreceived wakes a pool thread: the flight still
/// runs and its answer lands in the result cache.
#[test]
fn a_dropped_pending_still_lands_in_the_result_cache() {
    let (mut svc, threads) = service(1, true);
    start_and_settle(&mut svc);
    drop(pending(&svc, &req("india", PredictionMode::Basic)));
    let give_up = Instant::now() + Duration::from_secs(30);
    while svc.result_cache_len() == 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(svc.result_cache_len(), 1, "the dropped flight ran");
    assert_eq!(threads.names(), ["feam-svc-0"]);
    let hit = svc
        .predict(&req("india", PredictionMode::Basic))
        .expect("answers");
    assert!(hit.from_result_cache);
}

/// (e) A handle outliving its unstarted service fails its `recv`; it does
/// not run the abandoned flight.
#[test]
fn recv_after_the_service_is_dropped_is_an_error() {
    let (svc, threads) = service(1, true);
    let handle = pending(&svc, &req("india", PredictionMode::Basic));
    drop(svc);
    assert!(handle.recv().is_err());
    assert!(threads.names().is_empty(), "nothing evaluated");
}

/// A shed wakes a pool thread: a caller that holds its queued handle
/// unreceived and retries a shed submit is admitted once the pool drains
/// the full queue, instead of retrying forever.
#[test]
fn a_shed_wakes_the_pool_for_a_retrying_caller() {
    let (mut cfg, threads) = config(1, true);
    cfg.queue_capacity = 1;
    let mut svc = with_app(cfg);
    start_and_settle(&mut svc);
    let held = pending(&svc, &req("india", PredictionMode::Basic));
    let retried = req("india", PredictionMode::Extended);
    let give_up = Instant::now() + Duration::from_secs(30);
    let admitted = loop {
        match svc.submit(&retried) {
            Err(e) if e.retryable() && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => break other,
        }
    };
    let admitted = admitted.expect("admitted once the held flight ran");
    assert_eq!(
        threads.names()[0],
        "feam-svc-0",
        "the pool ran the held flight"
    );
    assert!(held.recv().expect("answered").is_ok());
    if let Delivery::Pending(p) = admitted {
        assert!(p.recv().expect("answered").is_ok());
    }
}
