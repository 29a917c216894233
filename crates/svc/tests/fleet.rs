//! Fleet behaviour under routing, failure and invalidation: replica sets
//! smaller than R, health-gated failover when the primary dies,
//! all-replicas-open degraded fallback, answers cached only where they
//! were computed, epoch catch-up for nodes that missed configuration
//! ops, where a read's evaluation runs (on its caller, or on the flight it
//! coalesced onto), and fleet-level deadline propagation.

use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::{
    Fleet, FleetConfig, FleetError, NodeState, PredictRequest, PredictService, ServiceConfig,
    SvcError,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A started fleet of `n` identically configured nodes (chaos pinned off,
/// caching on) with one registered binary "app", plus the fleet recorder.
fn test_fleet(n: usize, r: usize) -> (Fleet, feam_obs::Recorder) {
    let (recorder, _sink) = feam_obs::Recorder::memory();
    let fleet = fleet_with(n, r, &recorder, feam_obs::Recorder::disabled());
    (fleet, recorder)
}

/// [`test_fleet`] with the fleet's recorder and the one every node uses.
fn fleet_with(
    n: usize,
    r: usize,
    recorder: &feam_obs::Recorder,
    node_recorder: feam_obs::Recorder,
) -> Fleet {
    let cfg = FleetConfig {
        replication: r,
        recorder: recorder.clone(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(cfg, n, |_| {
        let mut node_cfg = ServiceConfig {
            workers: 2,
            caching: true,
            fault_plan: Some(Arc::new(FaultPlan::none())),
            recorder: node_recorder.clone(),
            ..ServiceConfig::default()
        };
        node_cfg.result_cache = true;
        PredictService::new(node_cfg)
    });
    let demo = feam_svc::registry::demo_binary(7);
    fleet
        .register_binary("app", demo.image.clone(), &demo.home_site)
        .expect("fresh name registers fleet-wide");
    fleet.start();
    fleet
}

fn req(site: &str) -> PredictRequest {
    PredictRequest {
        binary_ref: "app".into(),
        target_site: site.into(),
        mode: PredictionMode::Basic,
        deadline: None,
    }
}

/// A fleet answer must be byte-identical to a single node's: sharding is
/// a capacity decision, never a semantic one.
#[test]
fn fleet_answer_matches_a_single_node() {
    let (fleet, _rec) = test_fleet(3, 2);
    let fleet_resp = fleet.predict(&req("india")).expect("fleet answers");

    let mut solo_cfg = ServiceConfig {
        workers: 2,
        caching: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    solo_cfg.result_cache = true;
    let mut solo = PredictService::new(solo_cfg);
    solo.register_binary("app", feam_svc::registry::demo_binary(7))
        .expect("registers");
    solo.start();
    let solo_resp = solo.predict(&req("india")).expect("solo answers");

    assert_eq!(
        serde_json::to_string(&fleet_resp.response.prediction).unwrap(),
        serde_json::to_string(&solo_resp.prediction).unwrap(),
        "fleet routing changed the prediction"
    );
    assert_eq!(fleet_resp.failovers, 0);
    assert!(!fleet_resp.degraded_route);
}

/// A fleet is one world: every node serves from the very `Site` values
/// node 0 was built with, never from a copy of its own.
#[test]
fn every_node_serves_from_one_site_list() {
    let (fleet, _rec) = test_fleet(4, 2);
    let first = fleet.node_service(0);
    let names = first.site_names();
    assert!(!names.is_empty());
    for s in &names {
        let site = first.site(s).expect("node 0 serves its own site");
        for i in 1..fleet.len() {
            let other = fleet.node_service(i).site(s).expect("every node serves it");
            assert!(
                std::ptr::eq(site, other),
                "node {i} holds its own copy of site {s}"
            );
        }
    }
}

/// R larger than the fleet puts every node in every replica set, and
/// requests still answer.
#[test]
fn replica_set_smaller_than_r_uses_every_node() {
    let (fleet, _rec) = test_fleet(2, 3);
    let replicas = fleet.replica_set("app", "india").expect("registered");
    assert_eq!(replicas.len(), 2, "R=3 over 2 nodes = both nodes");
    let resp = fleet.predict(&req("india")).expect("tiny fleet answers");
    assert!(!resp.response.prediction.verdicts.is_empty());
}

/// Killing the primary replica mid-stream fails the request over to the
/// next replica — same answer, `fleet.failover` counted.
#[test]
fn killed_primary_fails_over_to_the_next_replica() {
    let (fleet, rec) = test_fleet(4, 2);
    let before = fleet.predict(&req("india")).expect("warm answer");

    let replicas = fleet.replica_set("app", "india").expect("registered");
    fleet.kill_node(replicas[0]);

    let after = fleet.predict(&req("india")).expect("failover answers");
    assert_eq!(after.failovers, 1, "exactly the dead primary was skipped");
    assert!(!after.degraded_route, "the secondary is still in-set");
    assert_ne!(
        *after.node,
        format!("node-{}", replicas[0]),
        "the dead node must not serve"
    );
    assert_eq!(
        serde_json::to_string(&after.response.prediction).unwrap(),
        serde_json::to_string(&before.response.prediction).unwrap(),
        "failover changed the answer"
    );
    assert_eq!(rec.snapshot().counters.get("fleet.failover"), Some(&1));
}

/// When every replica refuses, any up node serves — degraded locality
/// beats unavailability — and the fallback is counted.
#[test]
fn all_replicas_down_falls_back_to_any_up_node() {
    let (fleet, rec) = test_fleet(3, 2);
    let replicas = fleet.replica_set("app", "india").expect("registered");
    for &i in &replicas {
        fleet.kill_node(i);
    }
    let resp = fleet
        .predict(&req("india"))
        .expect("degraded fallback serves");
    assert!(
        resp.degraded_route,
        "answer came from outside the replica set"
    );
    assert_eq!(resp.failovers, 2, "both replicas were skipped");
    assert!(!replicas.iter().any(|&i| *resp.node == format!("node-{i}")));
    let counters = rec.snapshot().counters;
    assert_eq!(counters.get("fleet.fallback.degraded"), Some(&1));

    // With every node dead the fleet finally refuses.
    for i in 0..fleet.len() {
        fleet.kill_node(i);
    }
    let err = fleet
        .predict(&req("india"))
        .expect_err("nothing left to serve");
    assert!(matches!(err, FleetError::Unavailable { .. }), "{err:?}");

    // The first node outside the replica set is down too: a later one
    // serves, and the fallback is still counted once. Fallback walks the
    // ring on from the replica set, and an R=4 fleet over the same four
    // nodes lists that walk as its replica set.
    let (fleet, rec) = test_fleet(4, 2);
    let replicas = fleet.replica_set("app", "india").expect("registered");
    let (whole_ring, _) = test_fleet(4, 4);
    let ring_order = whole_ring.replica_set("app", "india").expect("registered");
    assert_eq!(
        ring_order[..2],
        replicas[..],
        "the walk starts at the replicas"
    );
    let outside = ring_order[2];
    for &i in replicas.iter().chain([&outside]) {
        fleet.kill_node(i);
    }
    let resp = fleet
        .predict(&req("india"))
        .expect("degraded fallback serves");
    assert!(resp.degraded_route);
    assert_ne!(*resp.node, format!("node-{outside}"));
    let counters = rec.snapshot().counters;
    assert_eq!(counters.get("fleet.fallback.degraded"), Some(&1));
}

/// A computed answer is cached only on the node that computed it. When
/// that node dies, the same read fails over to its replica peer, which
/// computes the same answer itself. The read goes through
/// `predict_replicated`, the name the benchmark of record still calls, to
/// pin that it copies nothing either.
#[test]
fn a_computed_answer_stays_on_the_node_that_computed_it() {
    let (fleet, _rec) = test_fleet(3, 2);
    let first = fleet.predict_replicated(&req("india")).expect("answers");
    assert!(first.response.cacheable, "clean chaos-free answer");
    assert!(!first.response.from_result_cache);

    let replicas = fleet.replica_set("app", "india").expect("registered");
    let [primary, peer] = replicas[..] else {
        panic!("R=2 over 3 nodes: {replicas:?}");
    };
    assert_eq!(
        *first.node,
        format!("node-{primary}"),
        "the primary answers"
    );
    assert_eq!(fleet.node_service(primary).result_cache_len(), 1);
    assert_eq!(
        fleet.node_service(peer).result_cache_len(),
        0,
        "no copy lands on the peer"
    );

    fleet.kill_node(primary);
    let peer_svc = fleet.node_service(peer);
    assert_eq!(peer_svc.evaluations(), 0);
    let after = fleet.predict(&req("india")).expect("failover answers");
    assert_eq!(*after.node, format!("node-{peer}"));
    assert_eq!(after.failovers, 1);
    assert!(!after.response.from_result_cache);
    assert_eq!(
        peer_svc.evaluations(),
        1,
        "the peer computes its own answer"
    );
    assert_eq!(
        serde_json::to_string(&after.response.prediction).unwrap(),
        serde_json::to_string(&first.response.prediction).unwrap(),
        "the peer's answer differs from the primary's"
    );
}

/// Configuration ops missed while a node was down or partitioned replay —
/// in log order — before the node serves again, so a rejoined node can
/// never answer from stale configuration.
#[test]
fn rejoining_nodes_catch_up_missed_epochs_before_serving() {
    let (fleet, rec) = test_fleet(3, 2);
    let node1_state =
        || rec.metrics_snapshot(60_000).unwrap().gauges["fleet.node.state.node-1"].last;
    assert_eq!(fleet.epoch(), 1, "the registration is op #1");
    for i in 0..3 {
        assert_eq!(fleet.node_applied_epoch(i), 1);
    }

    fleet.partition_node(2);
    let epoch = fleet.reconfigure_site("india").expect("known site");
    assert_eq!(epoch, 2);
    assert_eq!(
        fleet.node_applied_epoch(2),
        1,
        "the partitioned node missed the reconfigure"
    );

    fleet.kill_node(1);
    assert_eq!(
        node1_state(),
        2.0,
        "a killed node's breaker gauge reads Open"
    );
    let demo2 = feam_svc::registry::demo_binary(8);
    let epoch = fleet.update_binary("app", demo2.image.clone(), &demo2.home_site);
    assert_eq!(epoch, 3);
    assert_eq!(fleet.node_applied_epoch(0), 3, "reachable node applied");
    assert_eq!(
        fleet.node_applied_epoch(1),
        2,
        "killed node missed the update"
    );

    fleet.heal_node(2);
    assert_eq!(fleet.node_applied_epoch(2), 3, "heal replays ops 2..3");
    fleet.revive_node(1);
    assert_eq!(fleet.node_applied_epoch(1), 3, "revive replays op 3");
    assert_eq!(
        node1_state(),
        0.0,
        "a revived node's breaker gauge reads Closed"
    );

    // Every node now answers for the *new* bytes: same generation
    // everywhere, so all three services agree.
    let baseline = fleet
        .node_service(0)
        .predict(&req("india"))
        .expect("answers");
    for i in 1..3 {
        let resp = fleet
            .node_service(i)
            .predict(&req("india"))
            .expect("answers");
        assert_eq!(
            serde_json::to_string(&resp.prediction).unwrap(),
            serde_json::to_string(&baseline.prediction).unwrap(),
            "node {i} diverged after catch-up"
        );
    }
}

/// A node sink that holds the first evaluation (the `svc.eval` span) for
/// at least 400 ms and until a second read has coalesced onto it, and
/// counts the evaluations opened, so a flight is slow by construction,
/// not by how fast a cold evaluation runs or how the client thread is
/// scheduled.
#[derive(Clone, Default)]
struct HoldFirstEval {
    opened: Arc<AtomicUsize>,
    coalesced: Arc<AtomicBool>,
}

impl feam_obs::Sink for HoldFirstEval {
    fn record(&self, event: &feam_obs::Event) {
        if event.name == "svc.coalesced_onto" {
            self.coalesced.store(true, Ordering::SeqCst);
        }
        if event.kind != feam_obs::EventKind::SpanStart || event.name != "svc.eval" {
            return;
        }
        if self.opened.fetch_add(1, Ordering::SeqCst) > 0 {
            return;
        }
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(400));
        // Bounded, so a read that never coalesces fails the assertions
        // below instead of hanging the test.
        while !self.coalesced.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// A read that coalesces onto a flight another thread is running waits
/// for that flight: one evaluation fleet-wide, however long it takes, and
/// both reads get its answer from the same node. A second thread's read
/// claims the flight first and is held inside the evaluation.
#[test]
fn a_coalesced_read_waits_for_the_running_flight() {
    let hold = HoldFirstEval::default();
    let node_recorder = feam_obs::Recorder::with_sink(Box::new(hold.clone()));
    let fleet = Arc::new(fleet_with(
        2,
        2,
        &feam_obs::Recorder::disabled(),
        node_recorder,
    ));
    let claimer = {
        let fleet = fleet.clone();
        std::thread::spawn(move || fleet.predict(&req("india")))
    };
    let give_up = Instant::now() + Duration::from_secs(30);
    while hold.opened.load(Ordering::SeqCst) == 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        hold.opened.load(Ordering::SeqCst),
        1,
        "the claimer is evaluating"
    );

    let resp = fleet
        .predict(&req("india"))
        .expect("coalesced read answers");
    let claimed = claimer.join().expect("claimer").expect("claimer answers");
    assert!(hold.coalesced.load(Ordering::SeqCst), "the read coalesced");
    assert_eq!(
        hold.opened.load(Ordering::SeqCst),
        1,
        "one evaluation fleet-wide"
    );
    assert_eq!(
        resp.node, claimed.node,
        "both reads were answered by one node"
    );
    assert!(
        Arc::ptr_eq(&resp.response.answer, &claimed.response.answer),
        "the coalesced read got the flight's answer"
    );
}

/// Names of the threads `svc.eval` spans opened on, in order.
#[derive(Clone, Default)]
struct EvalThreads(Arc<Mutex<Vec<String>>>);

impl feam_obs::Sink for EvalThreads {
    fn record(&self, event: &feam_obs::Event) {
        if event.kind == feam_obs::EventKind::SpanStart && event.name == "svc.eval" {
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

/// A computed read whose flight is still queued runs it on the calling
/// thread. The pool's threads are given time to park first; nothing in a
/// read wakes them afterwards.
#[test]
fn a_fleet_read_evaluates_on_its_caller() {
    let threads = EvalThreads::default();
    let node_recorder = feam_obs::Recorder::with_sink(Box::new(threads.clone()));
    let fleet = fleet_with(4, 2, &feam_obs::Recorder::disabled(), node_recorder);
    std::thread::sleep(Duration::from_millis(50));

    let (tx, rx) = mpsc::channel();
    let client = std::thread::Builder::new()
        .name("fleet-client".into())
        .spawn(move || {
            let mut computed = 0;
            for site in fleet.node_service(0).site_names() {
                for mode in [PredictionMode::Basic, PredictionMode::Extended] {
                    let read = PredictRequest { mode, ..req(&site) };
                    let out = fleet.predict(&read).expect("answers");
                    assert!(!out.response.from_result_cache, "each key is read once");
                    computed += 1;
                }
            }
            let _ = tx.send(computed);
        })
        .expect("spawn client");
    let computed = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("every read is answered");
    client.join().expect("client");
    let names = threads.names();
    assert_eq!(names.len(), computed, "one evaluation per computed read");
    assert!(
        names.iter().all(|n| n == "fleet-client"),
        "every evaluation ran on its caller: {names:?}"
    );
}

/// Request-scoped failures (expired deadlines, unknown sites) admitted
/// as HalfOpen probes must hand their probe slot back: with the default
/// single-probe budget, a leaked slot would wedge the node HalfOpen
/// forever — no probe could ever be admitted again, so no outcome could
/// ever close or re-trip the breaker.
#[test]
fn request_scoped_failures_do_not_wedge_a_halfopen_breaker() {
    let (recorder, _sink) = feam_obs::Recorder::memory();
    let cfg = FleetConfig {
        replication: 2,
        recorder: recorder.clone(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(cfg, 3, |_| {
        let mut node_cfg = ServiceConfig {
            workers: 2,
            caching: true,
            fault_plan: Some(Arc::new(FaultPlan::none())),
            ..ServiceConfig::default()
        };
        node_cfg.result_cache = true;
        PredictService::new(node_cfg)
    });
    let demo = feam_svc::registry::demo_binary(7);
    fleet
        .register_binary("app", demo.image.clone(), &demo.home_site)
        .expect("registers");
    fleet.start();

    let replicas = fleet.replica_set("app", "india").expect("registered");
    let primary = replicas[0];
    fleet.trip_breaker(primary);
    assert_eq!(fleet.node_state(primary), NodeState::Open);
    std::thread::sleep(Duration::from_millis(feam_svc::health::OPEN_COOLDOWN_MS));
    assert_eq!(fleet.node_state(primary), NodeState::HalfOpen);

    // Probe 1: an expired deadline is shed — the request's failure.
    let expired = PredictRequest {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..req("india")
    };
    let err = fleet.predict(&expired).expect_err("expired request sheds");
    assert!(
        matches!(err, FleetError::Svc(SvcError::DeadlineExceeded)),
        "{err:?}"
    );
    assert_eq!(
        fleet.node_state(primary),
        NodeState::HalfOpen,
        "no outcome was recorded against the probing node"
    );

    // Probe 2: an unknown site is rejected before evaluation — also not
    // the node's fault.
    let err = fleet
        .predict(&req("atlantis"))
        .expect_err("unknown site is rejected");
    assert!(
        matches!(err, FleetError::Svc(SvcError::UnknownSite(_))),
        "{err:?}"
    );

    // Probe 3: both slots came back, so a clean request is still
    // admitted at the primary and its success closes the breaker.
    let ok = fleet
        .predict(&req("india"))
        .expect("clean probe is admitted");
    assert_eq!(
        *ok.node,
        format!("node-{primary}"),
        "the primary took the probe instead of being failed over"
    );
    assert_eq!(ok.failovers, 0);
    assert_eq!(
        fleet.node_state(primary),
        NodeState::Closed,
        "the probe's success closed the breaker"
    );
}

/// An expired deadline is the request's failure, not the node's: the
/// fleet surfaces the distinct error and does not count it against node
/// health or trip failover.
#[test]
fn expired_deadlines_shed_without_blaming_the_node() {
    let (fleet, rec) = test_fleet(3, 2);
    let expired = PredictRequest {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..req("india")
    };
    let err = fleet.predict(&expired).expect_err("expired request sheds");
    assert!(
        matches!(err, FleetError::Svc(SvcError::DeadlineExceeded)),
        "{err:?}"
    );
    let counters = rec.snapshot().counters;
    assert_eq!(counters.get("fleet.failover"), None, "no failover fired");
    assert_eq!(
        counters.get("fleet.unavailable"),
        None,
        "a shed is not unavailability"
    );
    // The node that shed stays Closed: it did its job.
    for i in 0..fleet.len() {
        assert_eq!(fleet.node_state(i), feam_svc::NodeState::Closed);
    }
}

/// An extended read of "app" at `site`.
fn extended(site: &str) -> PredictRequest {
    PredictRequest {
        mode: PredictionMode::Extended,
        ..req(site)
    }
}

/// A started 4-node, R=2 fleet whose nodes all record into one recorder,
/// returned with a count of the source phases that recorder has seen.
fn counted_fleet() -> (Fleet, impl Fn() -> u64) {
    let (nodes, _sink) = feam_obs::Recorder::memory();
    let fleet = fleet_with(4, 2, &feam_obs::Recorder::disabled(), nodes.clone());
    let source_phases = move || {
        nodes
            .snapshot()
            .spans
            .get("svc.source_phase")
            .map_or(0, |s| s.count)
    };
    (fleet, source_phases)
}

/// Every node binds the one binding a logged op carries, so the fleet
/// gathers a binary's source bundle once per home-site epoch, however
/// many nodes serve its extended reads: a home-site reconfiguration costs
/// one source phase, another site's none, and a rollback none.
#[test]
fn the_fleet_runs_one_source_phase_per_binding_and_home_epoch() {
    let (fleet, source_phases) = counted_fleet();
    let sites = fleet.node_service(0).site_names();
    let home = fleet
        .node_service(0)
        .binding("app")
        .unwrap()
        .home_site
        .clone();
    let read_everywhere = || {
        for site in &sites {
            fleet.predict(&extended(site)).expect("answers");
        }
    };
    read_everywhere();
    assert_eq!(source_phases(), 1, "one bundle serves every node");

    fleet.reconfigure_site(&home).expect("known site");
    read_everywhere();
    assert_eq!(source_phases(), 2, "a home-site epoch bump costs one");

    let other = sites.iter().find(|s| **s != home).expect("two sites");
    fleet.reconfigure_site(other).expect("known site");
    read_everywhere();
    assert_eq!(source_phases(), 2, "another site's bump costs none");

    let a = fleet.node_service(0).binding("app").unwrap().image.clone();
    let b = feam_svc::registry::demo_binary(8);
    fleet.update_binary("app", b.image.clone(), &home);
    read_everywhere();
    assert_eq!(source_phases(), 3, "new content costs one");
    fleet.update_binary("app", a, &home);
    // Re-evaluate A everywhere but at home: each read needs A's bundle.
    for site in sites.iter().filter(|s| **s != home) {
        fleet.reconfigure_site(site).expect("known site");
    }
    read_everywhere();
    assert_eq!(source_phases(), 3, "the rollback keeps A's bundle");
}

/// After a register, an update and a rollback, every node holds the same
/// binding `Arc` as node 0.
#[test]
fn every_node_binds_the_ops_one_binding() {
    let (fleet, _source_phases) = counted_fleet();
    let one_binding = |when: &str| {
        let first = fleet.node_service(0).binding("app").unwrap();
        for i in 1..fleet.len() {
            let binding = fleet.node_service(i).binding("app").unwrap();
            assert!(Arc::ptr_eq(&binding, &first), "{when}: node {i}");
        }
        first
    };
    let registered = one_binding("register");
    let b = feam_svc::registry::demo_binary(8);
    fleet.update_binary("app", b.image.clone(), &b.home_site);
    one_binding("update");
    fleet.update_binary("app", registered.image.clone(), &registered.home_site);
    assert!(
        Arc::ptr_eq(&one_binding("rollback"), &registered),
        "the rollback re-adopts the registered binding"
    );
}

/// A node killed across a home-site reconfiguration catches up on revival
/// and, serving from the shared bundle memo, answers an extended read
/// exactly as a single node would.
#[test]
fn a_revived_node_answers_from_the_shared_bundle_like_a_single_node() {
    let (fleet, _source_phases) = counted_fleet();
    let home = fleet
        .node_service(0)
        .binding("app")
        .unwrap()
        .home_site
        .clone();
    for site in fleet.node_service(0).site_names() {
        fleet.predict(&extended(&site)).expect("answers");
    }
    let j = fleet.replica_set("app", "india").expect("registered")[0];
    fleet.kill_node(j);
    fleet.reconfigure_site(&home).expect("known site");
    let elsewhere = fleet.predict(&extended("india")).expect("failover answers");
    assert_ne!(*elsewhere.node, format!("node-{j}"));
    fleet.revive_node(j);
    let revived = fleet.predict(&extended("india")).expect("j answers");
    assert_eq!(*revived.node, format!("node-{j}"), "the primary is back");

    let mut solo = PredictService::new(ServiceConfig {
        workers: 1,
        caching: true,
        result_cache: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    });
    solo.register_binary("app", feam_svc::registry::demo_binary(7))
        .expect("registers");
    solo.start();
    solo.reconfigure_site(&home).expect("known site");
    let oracle = solo.predict(&extended("india")).expect("solo answers");
    for resp in [&elsewhere, &revived] {
        assert_eq!(
            serde_json::to_string(&resp.response.prediction).unwrap(),
            serde_json::to_string(&oracle.prediction).unwrap(),
        );
    }
}
