//! An extended answer derives from the source phase at the binary's home
//! site as well as from the target: reconfiguring the home site orphans
//! it, on the node that computed it and on a replica it is shipped to.

use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::registry::demo_binary;
use feam_svc::{PredictRequest, PredictService, ServiceConfig};
use std::sync::Arc;

/// A started service with "cg" homed at ranger.
fn service() -> PredictService {
    let mut svc = PredictService::new(ServiceConfig {
        workers: 1,
        caching: true,
        result_cache: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    });
    svc.register_binary("cg", demo_binary(7)).unwrap();
    svc.start();
    svc
}

fn extended_at_india() -> PredictRequest {
    PredictRequest {
        binary_ref: "cg".into(),
        target_site: "india".into(),
        mode: PredictionMode::Extended,
        deadline: None,
    }
}

#[test]
fn reconfiguring_the_home_site_recomputes_an_extended_answer() {
    let svc = service();
    let binding = svc.binding("cg").unwrap();
    assert_eq!(binding.home_site, "ranger");
    let first = svc.predict(&extended_at_india()).unwrap();
    assert!(first.cacheable);
    assert_eq!(binding.bundle_epoch(), Some(0));
    let old_bundle = binding.bundle_for_epoch(0, || panic!("memoized"));
    assert!(svc.predict(&extended_at_india()).unwrap().from_result_cache);

    assert_eq!(svc.reconfigure_site("ranger").unwrap(), 1);
    let evaluations = svc.evaluations();
    let after = svc.predict(&extended_at_india()).unwrap();
    assert!(
        !after.from_result_cache,
        "the answer derived from ranger's old environment is not served"
    );
    assert_eq!(svc.evaluations(), evaluations + 1);
    assert_eq!(
        binding.bundle_epoch(),
        Some(1),
        "a new source phase ran under ranger's new epoch"
    );
    let new_bundle = binding.bundle_for_epoch(1, || panic!("memoized"));
    assert!(!Arc::ptr_eq(
        old_bundle.as_ref().unwrap(),
        new_bundle.as_ref().unwrap()
    ));
    assert!(svc.predict(&extended_at_india()).unwrap().from_result_cache);
}

#[test]
fn install_refuses_an_extended_payload_with_a_stale_home_epoch() {
    let origin = service();
    let peer = service();
    let resp = origin.predict(&extended_at_india()).unwrap();
    assert!(resp.cacheable);
    let coords = origin.result_origin("cg", "india").unwrap();
    assert_eq!(coords, peer.result_origin("cg", "india").unwrap());

    // The home site moves on the peer after the origin evaluated.
    peer.reconfigure_site("ranger").unwrap();
    assert!(
        !peer.install_result(
            "cg",
            "india",
            PredictionMode::Extended,
            coords,
            &resp.answer
        ),
        "a payload whose source phase ran under ranger's old epoch is refused"
    );
    assert_eq!(peer.result_cache_len(), 0);

    // A basic payload does not derive from the home site.
    let basic = PredictRequest {
        mode: PredictionMode::Basic,
        ..extended_at_india()
    };
    let basic_resp = origin.predict(&basic).unwrap();
    assert!(peer.install_result(
        "cg",
        "india",
        PredictionMode::Basic,
        coords,
        &basic_resp.answer
    ));

    // Coordinates read after the reconfiguration install.
    origin.reconfigure_site("ranger").unwrap();
    let fresh = origin.predict(&extended_at_india()).unwrap();
    let coords = origin.result_origin("cg", "india").unwrap();
    assert_eq!(coords.home_epoch, 1);
    assert!(peer.install_result(
        "cg",
        "india",
        PredictionMode::Extended,
        coords,
        &fresh.answer
    ));
    assert!(
        peer.predict(&extended_at_india())
            .unwrap()
            .from_result_cache
    );
    assert_eq!(peer.evaluations(), 0, "the peer never evaluated");
}
