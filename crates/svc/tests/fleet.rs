//! Fleet behaviour under routing, failure and invalidation: replica sets
//! smaller than R, health-gated failover when the primary dies,
//! all-replicas-open degraded fallback, asynchronous result replication,
//! epoch catch-up for nodes that missed configuration ops, hedging, and
//! fleet-level deadline propagation.

use feam_core::cache::BdcKey;
use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::{
    Fleet, FleetConfig, FleetError, HealthConfig, NodeState, PredictRequest, PredictService,
    ResultOrigin, ServiceConfig, SvcError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A started fleet of `n` identically configured nodes (chaos pinned off,
/// caching on) with one registered binary "app", plus the fleet recorder.
fn test_fleet(n: usize, r: usize, hedge: Option<Duration>) -> (Fleet, feam_obs::Recorder) {
    let (recorder, _sink) = feam_obs::Recorder::memory();
    let cfg = FleetConfig {
        replication: r,
        hedge_after: hedge,
        recorder: recorder.clone(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(cfg, n, |_| {
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
        .expect("fresh name registers fleet-wide");
    fleet.start();
    (fleet, recorder)
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
    let (fleet, _rec) = test_fleet(3, 2, None);
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

/// R larger than the fleet degrades to full replication: every node is in
/// every replica set, and requests still answer.
#[test]
fn replica_set_smaller_than_r_uses_every_node() {
    let (fleet, _rec) = test_fleet(2, 3, None);
    let replicas = fleet.replica_set("app", "india").expect("registered");
    assert_eq!(replicas.len(), 2, "R=3 over 2 nodes = both nodes");
    let resp = fleet.predict(&req("india")).expect("tiny fleet answers");
    assert!(!resp.response.prediction.verdicts.is_empty());
}

/// Killing the primary replica mid-stream fails the request over to the
/// next replica — same answer, `fleet.failover` counted.
#[test]
fn killed_primary_fails_over_to_the_next_replica() {
    let (fleet, rec) = test_fleet(4, 2, None);
    let before = fleet.predict(&req("india")).expect("warm answer");

    let replicas = fleet.replica_set("app", "india").expect("registered");
    fleet.kill_node(replicas[0]);

    let after = fleet.predict(&req("india")).expect("failover answers");
    assert_eq!(after.failovers, 1, "exactly the dead primary was skipped");
    assert!(!after.degraded_route, "the secondary is still in-set");
    assert_ne!(
        after.node,
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
    let (fleet, rec) = test_fleet(3, 2, None);
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
    assert!(!replicas.iter().any(|&i| resp.node == format!("node-{i}")));
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
}

/// A cacheable answer is replicated asynchronously to the rest of its
/// replica set: the peer answers from its result cache without ever
/// evaluating.
#[test]
fn results_replicate_to_replica_peers() {
    let (fleet, rec) = test_fleet(3, 2, None);
    let first = fleet.predict_replicated(&req("india")).expect("answers");
    assert!(first.response.cacheable, "clean chaos-free answer");
    assert!(!first.response.from_result_cache);

    // Wait for the replication thread to install on the peer.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let counters = rec.snapshot().counters;
        if counters
            .get("fleet.replication.applied")
            .copied()
            .unwrap_or(0)
            >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication never landed: {counters:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let replicas = fleet.replica_set("app", "india").expect("registered");
    let winner = replicas
        .iter()
        .position(|&i| first.node == format!("node-{i}"))
        .expect("primary answer comes from the replica set");
    let peer = replicas[1 - winner];
    let svc = fleet.node_service(peer);
    assert_eq!(svc.evaluations(), 0, "the peer never evaluated");
    let hit = svc.predict(&req("india")).expect("peer answers");
    assert!(
        hit.from_result_cache,
        "the replicated result serves the peer's first request"
    );
    assert_eq!(
        serde_json::to_string(&hit.prediction).unwrap(),
        serde_json::to_string(&first.response.prediction).unwrap(),
        "replication changed the answer"
    );
}

/// Configuration ops missed while a node was down or partitioned replay —
/// in log order — before the node serves again, so a rejoined node can
/// never answer from stale configuration.
#[test]
fn rejoining_nodes_catch_up_missed_epochs_before_serving() {
    let (fleet, rec) = test_fleet(3, 2, None);
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

/// A zero hedge window fires a hedge for every cold request; the answer
/// is still correct and the hedge counters move.
#[test]
fn hedging_fires_for_slow_primaries() {
    let (fleet, rec) = test_fleet(2, 2, Some(Duration::from_millis(0)));
    let resp = fleet
        .predict(&req("india"))
        .expect("hedged request answers");
    assert!(!resp.response.prediction.verdicts.is_empty());
    let counters = rec.snapshot().counters;
    assert_eq!(
        counters.get("fleet.hedge.fired"),
        Some(&1),
        "cold evaluation is slower than a zero hedge window"
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
        hedge_after: None,
        // Zero cooldown: a tripped breaker is immediately HalfOpen.
        health: HealthConfig {
            open_cooldown_ms: 0,
            ..HealthConfig::default()
        },
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
        ok.node,
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

/// The replication installer verifies the payload's origin coordinates
/// (content key, EDC epoch) against the target's current state and keys
/// the entry by those coordinates — an answer computed against old bytes
/// or a stale environment is refused, never installed under a new key.
#[test]
fn replication_install_verifies_origin_coordinates() {
    let solo = || {
        let mut cfg = ServiceConfig {
            workers: 2,
            caching: true,
            fault_plan: Some(Arc::new(FaultPlan::none())),
            ..ServiceConfig::default()
        };
        cfg.result_cache = true;
        let mut svc = PredictService::new(cfg);
        svc.register_binary("app", feam_svc::registry::demo_binary(7))
            .expect("registers");
        svc.start();
        svc
    };
    let origin = solo();
    let peer = solo();
    let resp = origin.predict(&req("india")).expect("origin evaluates");
    assert!(resp.cacheable);

    let coords = peer.result_origin("app", "india").expect("registered");

    // A payload computed for different bytes (the binding moved since
    // the origin evaluated) is refused.
    let moved_binding = ResultOrigin {
        content: BdcKey {
            hash: coords.content.hash ^ 1,
            ..coords.content
        },
        ..coords
    };
    assert!(!peer.install_result(
        "app",
        "india",
        PredictionMode::Basic,
        moved_binding,
        &resp.prediction,
        &resp.evaluation,
    ));
    // A payload computed under a stale site configuration is refused.
    let stale_site = ResultOrigin {
        edc_epoch: coords.edc_epoch + 1,
        ..coords
    };
    assert!(!peer.install_result(
        "app",
        "india",
        PredictionMode::Basic,
        stale_site,
        &resp.prediction,
        &resp.evaluation,
    ));
    assert_eq!(peer.result_cache_len(), 0, "refused payloads never land");

    // Matching coordinates install, and the peer serves from its result
    // cache without ever evaluating.
    assert!(peer.install_result(
        "app",
        "india",
        PredictionMode::Basic,
        coords,
        &resp.prediction,
        &resp.evaluation,
    ));
    let hit = peer.predict(&req("india")).expect("peer answers");
    assert!(hit.from_result_cache);
    assert_eq!(peer.evaluations(), 0, "the peer never evaluated");
}

/// An expired deadline is the request's failure, not the node's: the
/// fleet surfaces the distinct error and does not count it against node
/// health or trip failover.
#[test]
fn expired_deadlines_shed_without_blaming_the_node() {
    let (fleet, rec) = test_fleet(3, 2, None);
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
