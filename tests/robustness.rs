//! Robustness acceptance tests: the pipeline under injected faults.
//!
//! * 100% persistent EDC description-file faults: `run_target_phase` must
//!   still return a prediction — degraded, with `Unknown` determinants —
//!   instead of panicking or erroring.
//! * Persistent VFS faults: no panic anywhere in the phase.
//! * Transient faults at realistic rates: the retry policy recovers and
//!   the prediction matches the fault-free run.
//! * Persistent VFS faults never turn an `Incompatible` determinant into a
//!   `Compatible` one: a fault may only degrade a verdict to `Unknown`.

use feam::core::phases::{run_source_phase, run_target_phase, PhaseConfig, TargetOutcome};
use feam::core::predict::{Determinant, DeterminantVerdict, Determination};
use feam::core::report::report_json;
use feam::core::tec::APP_PATH;
use feam::sim::compile::{compile, ProgramSpec};
use feam::sim::faults::{Chokepoint, FaultPlan, FaultRate};
use feam::sim::toolchain::Language;
use feam::workloads::sites::{standard_sites, FIR, FORGE, INDIA, RANGER};
use std::sync::Arc;

fn gnu_binary(sites: &[feam::sim::site::Site]) -> Arc<Vec<u8>> {
    let india = &sites[INDIA];
    let stack = india
        .stacks
        .iter()
        .find(|s| s.stack.ident() == "openmpi-1.4.3-gnu-4.1.2")
        .unwrap()
        .clone();
    compile(
        india,
        Some(&stack),
        &ProgramSpec::new("cg", Language::Fortran),
        5,
    )
    .unwrap()
    .image
}

#[test]
fn persistent_edc_faults_degrade_instead_of_erroring() {
    let sites = standard_sites(101);
    let image = gnu_binary(&sites);
    // Every description file and environment database is persistently
    // unreadable at the target.
    let cfg = PhaseConfig {
        faults: Arc::new(FaultPlan::persistent_edc(7, 1.0)),
        ..PhaseConfig::default()
    };
    let outcome = run_target_phase(&sites[FIR], Some(&image), None, &cfg);

    // A prediction came back (no Err, no panic) and it is degraded.
    assert!(
        outcome.prediction.degraded(),
        "persistent EDC faults must surface as a degraded prediction"
    );
    assert!(
        outcome
            .prediction
            .verdicts
            .iter()
            .any(|v| v.verdict == Determination::Unknown),
        "some determinant must be Unknown: {:?}",
        outcome.prediction.verdicts
    );
    assert!(outcome.prediction.confidence() < 1.0);
    // The unobservable evidence is named in the environment description.
    assert!(
        outcome
            .environment
            .unobserved
            .iter()
            .any(|u| u == "c_library"),
        "unobserved: {:?}",
        outcome.environment.unobserved
    );
    // And the report carries the degradation for the user.
    let j = report_json(&outcome);
    assert_eq!(j["degraded"], true);
    assert!(j["confidence"].as_f64().unwrap() < 1.0);
    assert!(j["determinants"]
        .as_array()
        .unwrap()
        .iter()
        .any(|d| d["verdict"] == "unknown"));
}

#[test]
fn persistent_vfs_faults_do_not_panic() {
    let sites = standard_sites(101);
    let image = gnu_binary(&sites);
    let cfg = PhaseConfig {
        faults: Arc::new(FaultPlan::persistent_vfs(11, 1.0)),
        ..PhaseConfig::default()
    };
    // Every file read fails, including reading back the staged binary: the
    // phase must conclude with an all-Unknown degraded outcome, not panic.
    let outcome = run_target_phase(&sites[FIR], Some(&image), None, &cfg);
    assert!(!outcome.prediction.ready());
    assert!(outcome.prediction.degraded());
    assert_eq!(outcome.prediction.confidence(), 0.0);
}

#[test]
fn transient_faults_recover_to_the_fault_free_prediction() {
    let sites = standard_sites(101);
    let image = gnu_binary(&sites);
    let clean = run_target_phase(&sites[FIR], Some(&image), None, &PhaseConfig::default());

    // Realistic transient fault rates at every retried chokepoint.
    let plan = FaultPlan {
        seed: 21,
        description_file: FaultRate {
            transient: 0.2,
            persistent: 0.0,
        },
        module_db: FaultRate {
            transient: 0.2,
            persistent: 0.0,
        },
        probe_compile: FaultRate {
            transient: 0.2,
            persistent: 0.0,
        },
        daemon_spawn: FaultRate {
            transient: 0.2,
            persistent: 0.0,
        },
        ..FaultPlan::default()
    };
    let cfg = PhaseConfig {
        faults: Arc::new(plan),
        ..PhaseConfig::default()
    };
    let faulted = run_target_phase(&sites[FIR], Some(&image), None, &cfg);
    assert_eq!(
        faulted.prediction.ready(),
        clean.prediction.ready(),
        "retries must absorb transient faults: {:?}",
        faulted.prediction.verdicts
    );
    assert!(
        !faulted.prediction.degraded(),
        "no determinant should stay Unknown under transient-only faults"
    );
}

#[test]
fn source_phase_survives_transient_faults() {
    let sites = standard_sites(101);
    let image = gnu_binary(&sites);
    let plan = FaultPlan {
        seed: 3,
        probe_compile: FaultRate {
            transient: 0.3,
            persistent: 0.0,
        },
        ..FaultPlan::default()
    };
    let cfg = PhaseConfig {
        faults: Arc::new(plan),
        ..PhaseConfig::default()
    };
    let bundle = run_source_phase(&sites[INDIA], &image, &cfg).expect("source phase retries");
    assert!(
        !bundle.hello_worlds.is_empty(),
        "hello-world probes compiled despite transient compiler faults"
    );
}

fn with_faults(plan: FaultPlan) -> PhaseConfig {
    PhaseConfig {
        faults: Arc::new(plan),
        ..PhaseConfig::default()
    }
}

fn verdict_of(outcome: &TargetOutcome, d: Determinant) -> Option<&DeterminantVerdict> {
    outcome
        .prediction
        .verdicts
        .iter()
        .find(|v| v.determinant == d)
}

#[test]
fn vfs_fault_on_the_staged_binary_does_not_hide_a_missing_library() {
    // Built at Forge (glibc 2.12) with a portable glibc appetite, a Fortran
    // binary passes Ranger's C-library check, but Ranger has no
    // libgfortran.so.3 and Forge's copy of it needs a newer glibc.
    let sites = standard_sites(7);
    let (forge, ranger) = (&sites[FORGE], &sites[RANGER]);
    let mut prog = ProgramSpec::new("cg", Language::Fortran);
    prog.glibc_appetite = 0.0;
    let image = compile(forge, Some(&forge.stacks[0]), &prog, 7)
        .unwrap()
        .image;
    let clean_cfg = with_faults(FaultPlan::none());
    let bundle = run_source_phase(forge, &image, &clean_cfg).expect("source phase at Forge");
    let clean = run_target_phase(ranger, Some(&image), Some(&bundle), &clean_cfg);
    let libs = verdict_of(&clean, Determinant::SharedLibraries).expect("determinant 4");
    assert_eq!(libs.verdict, Determination::Incompatible, "{}", libs.detail);

    // A persistent VFS plan under which Ranger cannot read the staged
    // binary back (the BDC falls back to the bundle's description, and
    // `ldd` cannot read it either) but can read the hello-world probes.
    let key = |path: &str| format!("{}:{path}", ranger.name());
    let faults = |plan: &FaultPlan, path: &str| plan.roll(Chokepoint::VfsRead, &key(path), 1);
    let probes = [
        "/home/user/feam/hello_native",
        "/home/user/feam/hello_transported",
    ];
    let plan = (0..)
        .map(|seed| FaultPlan::persistent_vfs(seed, 0.05))
        .find(|p| faults(p, APP_PATH).is_some() && probes.iter().all(|h| faults(p, h).is_none()))
        .expect("some seed faults the staged binary only");
    let faulted = run_target_phase(ranger, Some(&image), Some(&bundle), &with_faults(plan));
    let libs = verdict_of(&faulted, Determinant::SharedLibraries).expect("determinant 4");
    assert_ne!(
        libs.detail, "all required shared libraries present",
        "the fault hid the missing library"
    );
    assert_ne!(libs.verdict, Determination::Compatible, "{}", libs.detail);
}

#[test]
fn persistent_vfs_faults_never_turn_a_failed_determinant_into_a_pass() {
    // A small extended-mode sweep: binaries from three home sites, each
    // evaluated at every site fault-free and under persistent VFS plans.
    let sites = standard_sites(7);
    let homes = [
        (FORGE, Language::Fortran),
        (INDIA, Language::C),
        (FIR, Language::Fortran),
    ];
    let clean_cfg = with_faults(FaultPlan::none());
    let mut checked = 0;
    for (home, language) in homes {
        let site = &sites[home];
        let image = compile(
            site,
            Some(&site.stacks[0]),
            &ProgramSpec::new("ft", language),
            7,
        )
        .unwrap()
        .image;
        let bundle = run_source_phase(site, &image, &clean_cfg).expect("bundle");
        for target in &sites {
            let clean = run_target_phase(target, Some(&image), Some(&bundle), &clean_cfg);
            for seed in 0..6 {
                let cfg = with_faults(FaultPlan::persistent_vfs(seed, 0.3));
                let faulted = run_target_phase(target, Some(&image), Some(&bundle), &cfg);
                for v in &clean.prediction.verdicts {
                    if v.verdict != Determination::Incompatible {
                        continue;
                    }
                    checked += 1;
                    if let Some(f) = verdict_of(&faulted, v.determinant) {
                        assert_ne!(
                            f.verdict,
                            Determination::Compatible,
                            "{} built at {} evaluated at {} (seed {seed}): fault-free {:?}, \
                             faulted {:?}",
                            v.determinant.name(),
                            site.name(),
                            target.name(),
                            v.detail,
                            f.detail
                        );
                    }
                }
            }
        }
    }
    assert!(checked > 0, "the sweep must meet failed determinants");
}
