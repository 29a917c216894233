//! An extended answer derives from the source phase at the binary's home
//! site as well as from the target: reconfiguring the home site orphans
//! it.

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
    assert!(!first.from_result_cache);
    assert_eq!(svc.result_cache_len(), 1, "the first answer is memoized");
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
