//! Microbenchmarks of the substrates: ELF synthesis/parsing throughput,
//! loader closure resolution, the simulated site tools (`ldd`, library
//! search, a job launch), library collection cold and warm, site
//! materialization, the service's computed read and rollback read, and a
//! fleet's computed read.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use feam_core::bdc::locate_library;
use feam_core::predict::PredictionMode;
use feam_elf::{Class, ElfSpec, ImportSpec, LazyElf, Machine};
use feam_sim::compile::{compile, ProgramSpec};
use feam_sim::exec::{run_mpi, DEFAULT_ATTEMPTS};
use feam_sim::loader::resolve_closure;
use feam_sim::site::{Session, Site};
use feam_sim::toolchain::Language;
use feam_sim::tools::{self, LddResult};
use feam_svc::{
    Fleet, FleetConfig, PredictRequest, PredictService, RegisteredBinary, ServiceConfig,
};
use feam_workloads::sites::{ranger, standard_sites, FIR};
use std::hint::black_box;
use std::sync::Arc;

fn app_spec() -> ElfSpec {
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = vec![
        "libmpi.so.0".into(),
        "libnsl.so.1".into(),
        "libutil.so.1".into(),
        "libgfortran.so.1".into(),
        "libm.so.6".into(),
        "libc.so.6".into(),
    ];
    spec.imports = vec![
        ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5"),
        ImportSpec::versioned("fopen64", "libc.so.6", "GLIBC_2.3.4"),
        ImportSpec::plain("MPI_Init", "libmpi.so.0"),
        ImportSpec::plain("_gfortran_st_write", "libgfortran.so.1"),
    ];
    spec.comments = vec!["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".into()];
    spec.text_size = 256 * 1024;
    spec
}

fn bench(c: &mut Criterion) {
    let spec = app_spec();
    let bytes = spec.build().unwrap();

    let mut g = c.benchmark_group("elf");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("build_256k_binary", |b| {
        b.iter(|| black_box(spec.build().unwrap()))
    });
    g.bench_function("parse_256k_binary", |b| {
        b.iter(|| black_box(LazyElf::parse(black_box(&bytes)).unwrap()))
    });
    g.bench_function("describe_256k_binary", |b| {
        b.iter(|| {
            black_box(
                feam_core::bdc::BinaryDescription::from_bytes("/bench/app", black_box(&bytes))
                    .unwrap(),
            )
        })
    });
    g.finish();

    // Loader closure resolution over a fully populated site.
    let sites = standard_sites(42);
    let fir = &sites[FIR];
    let item_stack = fir.stacks[1].clone(); // openmpi-gnu
    let bin = compile(
        fir,
        Some(&item_stack),
        &ProgramSpec::new("bt", Language::Fortran),
        42,
    )
    .unwrap();
    let mut g = c.benchmark_group("loader");
    g.sample_size(2000);
    // `resolve_closure` never reads the site's walk memo: a cold walk.
    g.bench_function("resolve_full_closure", |b| {
        b.iter(|| {
            let mut sess = Session::new(fir);
            sess.load_stack(&item_stack);
            sess.stage_file("/r/bt", Arc::clone(&bin.image));
            black_box(resolve_closure(&sess, "/r/bt").unwrap())
        })
    });
    // The same site answering a repeated `ldd` of an installed MPI
    // library from its walk memo: the warm walk.
    let libmpi = format!(
        "{}/{}",
        item_stack.lib_dir(),
        item_stack.stack.c_lib_soname()
    );
    let mut warm = Session::new(fir);
    warm.load_stack(&item_stack);
    assert!(
        matches!(tools::ldd(&warm, &libmpi), LddResult::Resolved(_)),
        "the benched library must not draw ldd's flaky verdict"
    );
    g.bench_function("ldd_installed_mpi_library_warm", |b| {
        b.iter(|| black_box(tools::ldd(&warm, black_box(&libmpi))))
    });
    g.finish();

    // The simulated site tools FEAM's phases call on a miss: `ldd` of a
    // staged MPI binary, the locate/find chain for a soname the site does
    // not have, and a hello-world launch under the site's own stack.
    let mut sess = Session::new(fir);
    sess.load_stack(&item_stack);
    sess.stage_file("/r/bt", Arc::clone(&bin.image));
    assert!(
        matches!(tools::ldd(&sess, "/r/bt"), LddResult::Resolved(_)),
        "the benched binary must not draw ldd's flaky verdict"
    );
    let hello = compile(
        fir,
        Some(&item_stack),
        &ProgramSpec::mpi_hello_world(Language::C),
        42,
    )
    .unwrap();
    sess.stage_file("/r/hello", Arc::clone(&hello.image));
    let mut g = c.benchmark_group("sim_tools");
    g.sample_size(2000);
    g.bench_function("ldd_staged_mpi_binary", |b| {
        b.iter(|| black_box(tools::ldd(&sess, black_box("/r/bt"))))
    });
    // The same `ldd` on a buffer no call has seen: the cold parse the
    // per-buffer metadata memo saves on every later call.
    g.bench_function("ldd_fresh_staged_buffer", |b| {
        b.iter_batched(
            || Arc::new(bin.image.to_vec()),
            |image| {
                sess.stage_file("/r/fresh", image);
                black_box(tools::ldd(&sess, "/r/fresh"))
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("locate_library_absent", |b| {
        b.iter(|| black_box(locate_library(&sess, black_box("libghost.so.9"))))
    });
    g.bench_function("run_mpi_hello_world", |b| {
        b.iter(|| {
            black_box(run_mpi(
                &mut sess,
                "/r/hello",
                &item_stack,
                2,
                DEFAULT_ATTEMPTS,
            ))
        })
    });
    g.finish();

    // The BDC cache-miss path end to end: recursive library collection
    // with every dependency read and described from scratch.
    let mut g = c.benchmark_group("bdc");
    g.sample_size(10);
    g.bench_function("collect_libraries_miss_path", |b| {
        b.iter(|| {
            let mut sess = Session::new(fir);
            sess.load_stack(&item_stack);
            sess.stage_file("/r/bt", Arc::clone(&bin.image));
            black_box(feam_core::bdc::collect_libraries(&mut sess, "/r/bt").unwrap())
        })
    });
    // The source phase's hot call: the same collection with the BDC memo
    // and the site's walk memo warm, every description and `ldd` listing
    // served from them.
    let caches = feam_core::cache::PhaseCaches::new(0);
    let mut warm = Session::new(fir);
    warm.load_stack(&item_stack);
    warm.stage_file("/r/bt", Arc::clone(&bin.image));
    let collect = |sess: &mut Session<'_>| {
        feam_core::bdc::collect_libraries_cached(sess, "/r/bt", Some(&caches)).unwrap()
    };
    assert!(
        !collect(&mut warm).is_empty(),
        "the benched binary links libraries"
    );
    g.sample_size(2000);
    g.bench_function("collect_libraries_warm", |b| {
        b.iter(|| black_box(collect(&mut warm)))
    });
    g.finish();

    // Site materialization: every library image synthesized from scratch.
    let mut g = c.benchmark_group("site");
    g.sample_size(10);
    g.bench_function("materialize_ranger", |b| {
        b.iter(|| black_box(Site::build(ranger(42))))
    });
    g.finish();

    // A closed-loop computed read on a started one-worker service: the
    // target site is reconfigured in the untimed setup, so every timed
    // `predict` misses the result cache and evaluates, as a cold sweep's
    // reads do.
    let cfg = ServiceConfig {
        workers: 1,
        caching: true,
        sites_seed: 42,
        fault_plan: Some(Arc::new(feam_sim::faults::FaultPlan::none())),
        ..ServiceConfig::default()
    };
    let mut svc = PredictService::new(cfg.clone());
    svc.register_binary(
        "bt",
        RegisteredBinary::new(Arc::clone(&bin.image), fir.name()),
    )
    .unwrap();
    svc.start();
    let read = PredictRequest {
        binary_ref: "bt".into(),
        target_site: fir.name().to_string(),
        mode: PredictionMode::Basic,
        deadline: None,
    };
    let mut g = c.benchmark_group("svc");
    g.sample_size(2000);
    g.bench_function("computed_read", |b| {
        b.iter_batched(
            || svc.reconfigure_site(&read.target_site).unwrap(),
            |_| {
                let resp = svc.predict(&read).unwrap();
                assert!(!resp.from_result_cache);
                resp
            },
            BatchSize::SmallInput,
        )
    });
    // A read after a rollback: the name is updated A→B→A in the untimed
    // setup, so the timed `predict` asks for bytes the service answered
    // before the flips.
    let other = compile(
        fir,
        Some(&item_stack),
        &ProgramSpec::new("ft", Language::Fortran),
        42,
    )
    .unwrap();
    svc.register_binary(
        "app",
        RegisteredBinary::new(Arc::clone(&bin.image), fir.name()),
    )
    .unwrap();
    let rollback = PredictRequest {
        binary_ref: "app".into(),
        ..read.clone()
    };
    svc.predict(&rollback).unwrap();
    g.bench_function("rollback_read", |b| {
        b.iter_batched(
            || {
                for image in [&other.image, &bin.image] {
                    let binding = RegisteredBinary::new(Arc::clone(image), fir.name());
                    svc.update_binary("app", binding);
                }
            },
            |_| svc.predict(&rollback).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // The same computed read through a started 4-node, R=2 fleet: routing,
    // the primary's evaluation, and the install on its replica peer.
    let fleet_cfg = FleetConfig {
        replication: 2,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::with_factory(fleet_cfg, 4, |_| PredictService::new(cfg.clone()));
    fleet
        .register_binary("bt", Arc::clone(&bin.image), fir.name())
        .unwrap();
    fleet.start();
    let mut g = c.benchmark_group("fleet");
    g.sample_size(2000);
    g.bench_function("computed_read", |b| {
        b.iter_batched(
            || fleet.reconfigure_site(&read.target_site).unwrap(),
            |_| {
                let out = fleet.predict_replicated(&read).unwrap();
                assert!(!out.response.from_result_cache);
                out
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
