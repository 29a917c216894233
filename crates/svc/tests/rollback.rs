//! A rollback costs a result-cache hit: a name updated A→B→A answers its
//! next reads from the result cache, runs no evaluation, and extended
//! reads reuse the source bundle gathered before the flips. Retention is
//! bounded: a name keeps the answers of at most two contents.

use feam_core::bundle::SourceBundle;
use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::registry::demo_binary;
use feam_svc::{
    Fleet, FleetConfig, PredictRequest, PredictService, RegisteredBinary, ServiceConfig,
};
use std::sync::Arc;

fn node_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        caching: true,
        result_cache: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    }
}

fn req(mode: PredictionMode) -> PredictRequest {
    PredictRequest {
        binary_ref: "app".into(),
        target_site: "india".into(),
        mode,
        deadline: None,
    }
}

/// The source bundle `binding` holds for home epoch 0; it must be there.
fn bundle_of(binding: &RegisteredBinary) -> Arc<SourceBundle> {
    binding
        .bundle_for_epoch(0, || panic!("the bundle is memoized"))
        .expect("the source phase succeeded")
}

#[test]
fn a_service_rollback_answers_from_the_result_cache() {
    let (a, b) = (demo_binary(5), demo_binary(6));
    let (a_image, b_image) = (a.image.clone(), b.image.clone());
    let mut svc = PredictService::new(node_config());
    svc.register_binary("app", a).unwrap();
    svc.start();
    for (memoized, mode) in [PredictionMode::Basic, PredictionMode::Extended]
        .into_iter()
        .enumerate()
    {
        assert!(!svc.predict(&req(mode)).unwrap().from_result_cache);
        assert_eq!(svc.result_cache_len(), memoized + 1, "{mode:?} is memoized");
    }
    let before = bundle_of(&svc.binding("app").unwrap());

    svc.update_binary("app", RegisteredBinary::new(b_image, "ranger"));
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        assert!(!svc.predict(&req(mode)).unwrap().from_result_cache);
    }
    svc.update_binary("app", RegisteredBinary::new(a_image, "ranger"));

    let evaluations = svc.evaluations();
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        let resp = svc.predict(&req(mode)).unwrap();
        assert!(resp.from_result_cache, "{mode:?}: the rollback hits");
    }
    assert_eq!(svc.evaluations(), evaluations, "nothing was evaluated");
    assert!(
        Arc::ptr_eq(&bundle_of(&svc.binding("app").unwrap()), &before),
        "the rollback re-adopts the binding with its bundle"
    );
    assert_eq!(svc.binary_generation("app"), Some(2));
}

#[test]
fn a_fleet_rollback_answers_from_the_result_cache() {
    let cfg = FleetConfig {
        replication: 2,
        recorder: feam_obs::Recorder::disabled(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(cfg, 2, |_| PredictService::new(node_config()));
    let (a, b) = (demo_binary(5), demo_binary(6));
    fleet
        .register_binary("app", a.image.clone(), "ranger")
        .unwrap();
    fleet.start();
    let evaluations =
        |f: &Fleet| -> u64 { (0..f.len()).map(|i| f.node_service(i).evaluations()).sum() };
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        fleet.predict(&req(mode)).unwrap();
    }
    let bundles = |f: &Fleet| -> Vec<Option<Arc<SourceBundle>>> {
        (0..f.len())
            .map(|i| {
                let binding = f.node_service(i).binding("app").unwrap();
                binding.bundle_epoch().map(|_| bundle_of(&binding))
            })
            .collect()
    };
    let before = bundles(&fleet);
    assert!(
        before.iter().any(Option::is_some),
        "one node ran the source phase"
    );

    fleet.update_binary("app", b.image.clone(), "ranger");
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        fleet.predict(&req(mode)).unwrap();
    }
    fleet.update_binary("app", a.image.clone(), "ranger");

    let evaluated = evaluations(&fleet);
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        let out = fleet.predict(&req(mode)).unwrap();
        assert!(
            out.response.from_result_cache,
            "{mode:?}: the rollback hits"
        );
    }
    assert_eq!(evaluations(&fleet), evaluated, "nothing was evaluated");
    for (node, (now, then)) in bundles(&fleet).iter().zip(&before).enumerate() {
        match (now, then) {
            (Some(now), Some(then)) => assert!(Arc::ptr_eq(now, then), "node {node}"),
            (None, None) => {}
            _ => panic!("node {node}: the rollback re-adopts its own binding"),
        }
    }
}

#[test]
fn a_name_keeps_the_answers_of_at_most_two_contents() {
    let mut svc = PredictService::new(node_config());
    svc.register_binary("app", demo_binary(100)).unwrap();
    svc.start();
    svc.predict(&req(PredictionMode::Basic)).unwrap();
    for seed in 101..111 {
        svc.update_binary("app", demo_binary(seed));
        let resp = svc.predict(&req(PredictionMode::Basic)).unwrap();
        assert!(
            !resp.from_result_cache,
            "seed {seed}: new content evaluates"
        );
        assert!(
            svc.result_cache_len() <= 2,
            "seed {seed}: {} answers held",
            svc.result_cache_len()
        );
    }
    assert_eq!(svc.result_cache_len(), 2, "current and previous content");
}
