//! A warm result-cache hit allocates nothing: the answer is the cached
//! `Arc` and the response's names are shared, not copied. Counted with
//! a global allocator that tallies the calling thread's allocations.

use feam_core::predict::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_svc::{Delivery, PredictRequest, PredictService, RegisteredBinary, ServiceConfig};
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

/// A started service over the standard sites with one MPI binary
/// registered, under no injected faults so its answer is cacheable.
fn service() -> PredictService {
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, RANGER};

    let cfg = ServiceConfig {
        workers: 1,
        caching: true,
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    let sites = standard_sites(cfg.sites_seed);
    let ranger = &sites[RANGER];
    let bin = compile(
        ranger,
        Some(&ranger.stacks[1]),
        &ProgramSpec::new("cg", Language::Fortran),
        1000,
    )
    .expect("test binary compiles");
    let mut svc = PredictService::new(cfg);
    svc.register_binary("cg", RegisteredBinary::new(bin.image, ranger.name()))
        .expect("fresh name registers");
    svc.start();
    svc
}

#[test]
fn a_result_cache_hit_shares_the_answer() {
    let svc = service();
    for mode in [PredictionMode::Basic, PredictionMode::Extended] {
        let req = PredictRequest {
            binary_ref: "cg".into(),
            target_site: "india".into(),
            mode,
            deadline: None,
        };
        let computed = svc.predict(&req).expect("the miss evaluates");
        assert!(!computed.from_result_cache && computed.cacheable);
        let (hit_allocs, delivery) = allocations(|| svc.submit(&req));
        let Ok(Delivery::Ready(hit)) = delivery else {
            panic!("{mode:?}: the second request hits the result cache");
        };
        assert!(hit.from_result_cache);
        assert!(
            Arc::ptr_eq(&hit.answer, &computed.answer),
            "{mode:?}: the hit hands out the evaluation's answer"
        );
        // The lookup key names the sites by index, and the response shares
        // the registry's name and the service's site name.
        assert_eq!(hit_allocs, 0, "{mode:?}: allocations of a result-cache hit");
    }
}
