//! A memo hit allocates nothing: the EDC, stack-test and BDC layers look
//! their key up borrowed and hand out the shared entry, so a served request
//! builds no key and copies no value. Counted with a global allocator that
//! tallies the calling thread's allocations.

use feam_core::cache::{BdcKey, Freshness, PhaseCaches, StackTestKeyParts};
use feam_core::edc;
use feam_sim::site::Session;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
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

#[test]
fn an_edc_hit_allocates_nothing() {
    let site = feam_workloads::sites::standard_sites(42).swap_remove(0);
    let caches = PhaseCaches::new(0);
    let mut sess = Session::new(&site);
    let (miss_allocs, stored) = allocations(|| caches.edc.memoize(&mut sess, edc::discover));
    assert!(miss_allocs > 0, "the miss discovers and inserts");
    assert!(
        caches.edc.contains(site.name()),
        "a clean discovery is stored"
    );
    let (hit_allocs, served) = allocations(|| {
        caches
            .edc
            .memoize(&mut sess, |_| unreachable!("the second lookup hits"))
    });
    assert!(Arc::ptr_eq(&served, &stored), "the hit shares the entry");
    assert_eq!(hit_allocs, 0, "an EDC hit allocates");
}

#[test]
fn a_stack_test_hit_allocates_nothing() {
    let site = feam_workloads::sites::standard_sites(42).swap_remove(0);
    let caches = PhaseCaches::new(0);
    let mut sess = Session::new(&site);
    let ident = site.stacks[0].stack.ident();
    let key = (site.name(), ident.as_str(), 42u64, 2u32);
    let key: &dyn StackTestKeyParts = &key;
    let fresh = Freshness::default();
    let lookup = |sess: &mut Session<'_>, computed: &mut bool| {
        let test = |_: &mut Session<'_>| {
            *computed = true;
            Ok::<_, Infallible>(true)
        };
        let Ok(ok) = caches.stack_tests.memoize(sess, key, fresh, test, |_| true);
        ok
    };
    let mut computed = false;
    let (miss_allocs, ok) = allocations(|| lookup(&mut sess, &mut computed));
    assert!(ok && computed);
    assert!(miss_allocs > 0, "the miss inserts an owned key");
    let mut computed = false;
    let (hit_allocs, ok) = allocations(|| lookup(&mut sess, &mut computed));
    assert!(ok && !computed, "the second lookup hits");
    assert_eq!(hit_allocs, 0, "a stack-test hit allocates");
    assert_eq!(caches.stack_tests.stats().hits, 1);
}

#[test]
fn a_bdc_hit_allocates_nothing() {
    let site = feam_workloads::sites::standard_sites(42).swap_remove(0);
    let caches = PhaseCaches::new(0);
    let mut sess = Session::new(&site);
    let mut spec = feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
    spec.needed = vec!["libc.so.6".into()];
    let bytes = spec.build().unwrap();
    let key = BdcKey::of(&bytes);
    let describe = |_: &mut Session<'_>| {
        feam_core::bdc::BinaryDescription::from_bytes("/tmp/app", &bytes).map(Arc::new)
    };
    let fresh = Freshness::default();
    let stored = caches
        .bdc
        .memoize(&mut sess, &key, fresh, describe, |_| true)
        .unwrap();
    let (hit_allocs, served) = allocations(|| {
        caches.bdc.memoize(
            &mut sess,
            &key,
            fresh,
            |_| -> feam_core::Result<_> { unreachable!("the second lookup hits") },
            |_| true,
        )
    });
    assert!(Arc::ptr_eq(&served.unwrap(), &stored));
    assert_eq!(hit_allocs, 0, "a BDC hit allocates");
}
