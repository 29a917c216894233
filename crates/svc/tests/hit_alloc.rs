//! A warm result-cache hit allocates nothing, under every kind of
//! recorder: the answer is the cached `Arc` and the response's names are
//! shared, not copied. A warm fleet hit allocates nothing either: it
//! walks the ring's stored node order for the key. Counted with a global
//! allocator that tallies the calling thread's allocations.

use feam_core::predict::PredictionMode;
use feam_obs::{NullSink, Recorder, WindowSpec};
use feam_sim::faults::FaultPlan;
use feam_svc::{
    Delivery, Fleet, FleetConfig, PredictRequest, PredictService, RegisteredBinary, ServiceConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// One worker over the standard sites, under no injected faults so its
/// answers are memoized.
fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        caching: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    }
}

/// An MPI binary built at its home site: the image and the site's name.
fn cg_binary() -> (Arc<Vec<u8>>, String) {
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, RANGER};

    let sites = standard_sites(config().sites_seed);
    let ranger = &sites[RANGER];
    let bin = compile(
        ranger,
        Some(&ranger.stacks[1]),
        &ProgramSpec::new("cg", Language::Fortran),
        1000,
    )
    .expect("test binary compiles");
    (bin.image, ranger.name().to_string())
}

/// A started service with the MPI binary registered as "cg", recording
/// to `recorder`.
fn service(recorder: Recorder) -> PredictService {
    let (image, home) = cg_binary();
    let mut svc = PredictService::new(ServiceConfig {
        recorder,
        ..config()
    });
    svc.register_binary("cg", RegisteredBinary::new(image, &home))
        .expect("fresh name registers");
    svc.start();
    svc
}

fn read(mode: PredictionMode) -> PredictRequest {
    PredictRequest {
        binary_ref: "cg".into(),
        target_site: "india".into(),
        mode,
        deadline: None,
    }
}

/// A warm hit allocates nothing whether telemetry is off, streamed to a
/// sink, or windowed with tail exemplars. The first hit may register the
/// recorder's counters and histograms, so one warm-up hit runs first.
#[test]
fn a_result_cache_hit_shares_the_answer() {
    let recorders = [
        ("disabled", Recorder::disabled()),
        ("with_sink", Recorder::with_sink(Box::new(NullSink))),
        (
            "serving",
            Recorder::serving(Box::new(NullSink), WindowSpec::default(), 8),
        ),
    ];
    for (kind, recorder) in recorders {
        let svc = service(recorder);
        for mode in [PredictionMode::Basic, PredictionMode::Extended] {
            let req = read(mode);
            let computed = svc.predict(&req).expect("the miss evaluates");
            assert!(!computed.from_result_cache);
            let warm_up = svc.predict(&req).expect("the warm-up hit answers");
            assert!(warm_up.from_result_cache, "{kind} {mode:?}: a repeat hits");
            let (hit_allocs, delivery) = allocations(|| svc.submit(&req));
            let Ok(Delivery::Ready(hit)) = delivery else {
                panic!("{kind} {mode:?}: the third request hits the result cache");
            };
            assert!(hit.from_result_cache);
            assert!(
                Arc::ptr_eq(&hit.answer, &computed.answer),
                "{kind} {mode:?}: the hit hands out the evaluation's answer"
            );
            // The lookup key names the sites by index, and the response
            // shares the registry's name and the service's site name.
            assert_eq!(
                hit_allocs, 0,
                "{kind} {mode:?}: allocations of a result-cache hit"
            );
        }
    }
}

/// A warm hit on a started 4-node, R=2 fleet allocates nothing: the ring
/// key is spelled on the stack, the candidate order is the ring's stored
/// walk for the key, and the response shares the node's name.
#[test]
fn a_warm_fleet_hit_allocates_nothing() {
    let cfg = FleetConfig {
        replication: 2,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(cfg, 4, |_| PredictService::new(config()));
    let (image, home) = cg_binary();
    fleet
        .register_binary("cg", image, &home)
        .expect("fresh name registers");
    fleet.start();
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        let req = read(mode);
        let computed = fleet.predict(&req).expect("the miss evaluates");
        assert!(!computed.response.from_result_cache);
        let (hit_allocs, hit) = allocations(|| fleet.predict(&req));
        let hit = hit.expect("the warm read answers");
        assert!(hit.response.from_result_cache, "{mode:?}: a warm read hits");
        assert!(Arc::ptr_eq(&hit.response.answer, &computed.response.answer));
        assert_eq!(hit_allocs, 0, "{mode:?}: allocations of a warm fleet hit");
    }
}
