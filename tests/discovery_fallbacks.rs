//! The EDC's fallback chains, exercised end to end: discovery without
//! Environment Modules or SoftEnv (filesystem search + path-name
//! inference + wrapper probing), missing-library detection without `ldd`,
//! and library collection when `ldd` is unreliable.

use feam::core::edc::{discover, DiscoveryMethod};
use feam::core::phases::{run_source_phase, run_target_phase, PhaseConfig};
use feam::sim::compile::{compile, ProgramSpec};
use feam::sim::mpi::{MpiImpl, MpiStack, Network};
use feam::sim::site::{EnvMgmt, OsInfo, Session, Site, SiteConfig};
use feam::sim::toolchain::{Compiler, CompilerFamily, Language};
use feam_elf::HostArch;

/// A site with no user-environment management tools at all.
fn bare_site(seed: u64, ldd_present: bool, locate_present: bool) -> Site {
    let mut cfg = SiteConfig::new(
        "bare",
        HostArch::X86_64,
        OsInfo::new("CentOS", "5.6", "2.6.18-194.el5"),
        "2.5",
        seed,
    );
    cfg.env_mgmt = EnvMgmt::None;
    cfg.ldd_present = ldd_present;
    cfg.ldd_flaky_rate = 0.0;
    cfg.locate_present = locate_present;
    cfg.system_error_rate = 0.0;
    cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
    cfg.stacks = vec![
        (
            MpiStack::new(
                MpiImpl::OpenMpi,
                "1.4",
                Compiler::new(CompilerFamily::Gnu, "4.1.2"),
                Network::Ethernet,
            ),
            true,
        ),
        (
            MpiStack::new(
                MpiImpl::Mpich2,
                "1.4",
                Compiler::new(CompilerFamily::Gnu, "4.1.2"),
                Network::Ethernet,
            ),
            true,
        ),
    ];
    Site::build(cfg)
}

#[test]
fn path_search_discovers_stacks_without_env_mgmt() {
    let site = bare_site(3, true, true);
    let mut sess = Session::new(&site);
    let env = discover(&mut sess);
    assert_eq!(
        env.available_stacks.len(),
        2,
        "filesystem search must find both stacks: {:?}",
        env.available_stacks
    );
    for d in &env.available_stacks {
        assert_eq!(d.via, DiscoveryMethod::PathSearch);
        assert!(d.key.is_none(), "no module key without a module system");
    }
    // Path-name inference recovered the full stack identity.
    let om = env
        .available_stacks
        .iter()
        .find(|d| d.mpi == MpiImpl::OpenMpi)
        .unwrap();
    assert_eq!(om.mpi_version, "1.4");
    assert_eq!(om.compiler, "gnu");
    assert_eq!(om.compiler_version, "4.1.2");
}

#[test]
fn path_search_works_even_without_locate() {
    // With locate absent, discovery falls back to `find` under /opt.
    let site = bare_site(4, true, false);
    let mut sess = Session::new(&site);
    let env = discover(&mut sess);
    assert_eq!(env.available_stacks.len(), 2, "{:?}", env.available_stacks);
}

#[test]
fn full_prediction_works_on_bare_site() {
    // End to end: a binary built on the bare site itself must be predicted
    // ready there, with discovery running entirely on fallbacks.
    let site = bare_site(5, true, true);
    let ist = site.stacks[0].clone();
    let bin = compile(
        &site,
        Some(&ist),
        &ProgramSpec::new("cg", Language::Fortran),
        5,
    )
    .unwrap();
    let outcome = run_target_phase(&site, Some(&bin.image), None, &PhaseConfig::default());
    assert!(
        outcome.prediction.ready(),
        "bare-site self prediction: {:?}",
        outcome.prediction.first_failure()
    );
}

#[test]
fn missing_library_detection_without_ldd() {
    // ldd absent: the EDC falls back to the BDC's needed list + search.
    let site = bare_site(6, false, true);
    let mut sess = Session::new(&site);
    let mut spec = feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
    spec.needed = vec![
        "libnotthere.so.5".into(),
        "libm.so.6".into(),
        "libc.so.6".into(),
    ];
    let image = std::sync::Arc::new(spec.build().unwrap());
    let binary = Some(("/home/user/app", &image));
    let (missing, _) = feam::core::edc::survey_libraries(&mut sess, &spec.needed, binary);
    assert_eq!(missing, vec!["libnotthere.so.5".to_string()]);
}

#[test]
fn source_phase_collects_libraries_even_when_ldd_unreliable() {
    // A GEE whose ldd never recognizes dynamic binaries: collection must
    // fall back to objdump-style parsing + locate/find.
    let mut cfg = SiteConfig::new(
        "flaky-gee",
        HostArch::X86_64,
        OsInfo::new("CentOS", "5.6", "2.6.18-194.el5"),
        "2.5",
        8,
    );
    cfg.ldd_flaky_rate = 1.0;
    cfg.system_error_rate = 0.0;
    cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
    cfg.stacks = vec![(
        MpiStack::new(
            MpiImpl::OpenMpi,
            "1.4",
            Compiler::new(CompilerFamily::Gnu, "4.1.2"),
            Network::Ethernet,
        ),
        true,
    )];
    let gee = Site::build(cfg);
    let ist = gee.stacks[0].clone();
    let bin = compile(
        &gee,
        Some(&ist),
        &ProgramSpec::new("bt", Language::Fortran),
        8,
    )
    .unwrap();
    let bundle = run_source_phase(&gee, &bin.image, &PhaseConfig::default()).unwrap();
    assert!(
        bundle.libraries.keys().any(|k| k.starts_with("libmpi")),
        "fallback collection must still find the MPI libraries: {:?}",
        bundle.libraries.keys().collect::<Vec<_>>()
    );
    assert!(bundle
        .libraries
        .keys()
        .any(|k| k.starts_with("libgfortran")));
}
