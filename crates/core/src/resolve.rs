//! The resolution model (§IV): make missing shared libraries available at
//! the target by staging copies gathered at a guaranteed execution
//! environment.
//!
//! "For any missing shared library, we recursively apply our prediction
//! model to determine if the library copy can be used. … If a library copy
//! is determined to be useable at a target site, we make the library
//! accessible at runtime by setting the appropriate environment
//! variables." Licensing issues are, as in the paper, out of scope.

use crate::bundle::SourceBundle;
use crate::edc::library_present;
use crate::predict::c_library_compatible;
use feam_elf::{HostArch, VersionName};
use feam_sim::site::Session;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a missing library could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ResolutionFailure {
    /// The bundle has no copy of this soname (it was not found at the GEE
    /// either, or no source phase ran).
    NoCopyAvailable,
    /// The copy was built for a different ISA or word length.
    IsaIncompatible(String),
    /// The copy's C library requirement exceeds the target's C library
    /// (§VI.C: "shared libraries copies … required incompatible C library
    /// versions").
    CLibraryIncompatible {
        required: String,
        target: Option<String>,
    },
    /// A transitive dependency of the copy is missing and itself
    /// unresolvable.
    DependencyUnresolvable { dependency: String },
}

impl ResolutionFailure {
    /// Stable failure class, used as a metrics suffix
    /// (`resolution.failed.<class>`) and a trace-event field so telemetry
    /// can break failures down by cause instead of one generic bucket.
    pub fn class(&self) -> &'static str {
        match self {
            ResolutionFailure::NoCopyAvailable => "no-copy-available",
            ResolutionFailure::IsaIncompatible(_) => "isa-incompatible",
            ResolutionFailure::CLibraryIncompatible { .. } => "c-library-incompatible",
            ResolutionFailure::DependencyUnresolvable { .. } => "dependency-unresolvable",
        }
    }
}

impl std::fmt::Display for ResolutionFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolutionFailure::NoCopyAvailable => write!(f, "no copy available in bundle"),
            ResolutionFailure::IsaIncompatible(d) => write!(f, "copy ISA-incompatible: {d}"),
            ResolutionFailure::CLibraryIncompatible { required, target } => write!(
                f,
                "copy requires {required}, target provides {}",
                target.as_deref().unwrap_or("unknown")
            ),
            ResolutionFailure::DependencyUnresolvable { dependency } => {
                write!(f, "copy's dependency {dependency} unresolvable")
            }
        }
    }
}

/// Outcome of resolving one missing library.
#[derive(Debug, Clone)]
pub enum LibraryResolution {
    /// The copy is predicted usable and staged.
    Staged { soname: String, staged_path: String },
    /// Unresolvable, with the reason reported to the user.
    Failed {
        soname: String,
        reason: ResolutionFailure,
    },
}

/// The complete resolution plan for one (binary, target) pair.
#[derive(Debug, Clone, Default)]
pub struct ResolutionPlan {
    /// Copies staged into the session, as (path, bytes).
    pub staged: Vec<(String, Arc<Vec<u8>>)>,
    /// Per-library outcomes (staged and failed).
    pub outcomes: Vec<LibraryResolution>,
    /// The directory added to the runtime environment.
    pub staging_dir: String,
}

impl ResolutionPlan {
    /// Did every missing library resolve?
    pub fn complete(&self) -> bool {
        !self
            .outcomes
            .iter()
            .any(|o| matches!(o, LibraryResolution::Failed { .. }))
    }

    /// Sonames that failed with their reasons.
    pub fn failures(&self) -> Vec<(&str, &ResolutionFailure)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                LibraryResolution::Failed { soname, reason } => Some((soname.as_str(), reason)),
                _ => None,
            })
            .collect()
    }

    /// Number of staged copies.
    pub fn staged_count(&self) -> usize {
        self.staged.len()
    }
}

/// What one [`resolve_missing`] call has decided so far.
#[derive(Default)]
struct Decisions {
    /// Usability verdict per bundle copy.
    verdicts: BTreeMap<String, Result<(), ResolutionFailure>>,
    /// [`library_present`] per soname. Nothing a presence check reads
    /// changes within one call: it leaves the env alone, `exists` rolls no
    /// fault, the library search reads only the `Site`, and staged copies
    /// reach the loader path only after the call returns.
    present: BTreeMap<String, bool>,
}

impl Decisions {
    fn present(&mut self, sess: &Session<'_>, soname: &str) -> bool {
        if let Some(&present) = self.present.get(soname) {
            return present;
        }
        let present = library_present(sess, soname);
        self.present.insert(soname.to_string(), present);
        present
    }
}

/// Recursive usability check for one copy: FEAM's prediction model applied
/// to the library (§IV). `visiting` breaks dependency cycles.
fn copy_usable(
    sess: &Session<'_>,
    bundle: &SourceBundle,
    soname: &str,
    target_arch: HostArch,
    target_c_library: Option<&VersionName>,
    memo: &mut Decisions,
    visiting: &mut Vec<String>,
) -> Result<(), ResolutionFailure> {
    if let Some(cached) = memo.verdicts.get(soname) {
        return cached.clone();
    }
    if visiting.iter().any(|v| v == soname) {
        return Ok(()); // cycle: optimistically fine, as ld.so handles cycles
    }
    let Some(copy) = bundle.libraries.get(soname) else {
        let r = Err(ResolutionFailure::NoCopyAvailable);
        memo.verdicts.insert(soname.to_string(), r.clone());
        return r;
    };
    // Determinant 1: ISA.
    if !target_arch.executes(copy.description.machine, copy.description.class) {
        let r = Err(ResolutionFailure::IsaIncompatible(format!(
            "{} {}-bit",
            copy.description.machine.name(),
            copy.description.class.bits()
        )));
        memo.verdicts.insert(soname.to_string(), r.clone());
        return r;
    }
    // Determinant 3: C library requirement of the copy itself.
    if !c_library_compatible(copy.description.required_glibc.as_ref(), target_c_library) {
        let r = Err(ResolutionFailure::CLibraryIncompatible {
            required: copy
                .description
                .required_glibc
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_default(),
            target: target_c_library.map(|v| v.render()),
        });
        memo.verdicts.insert(soname.to_string(), r.clone());
        return r;
    }
    // Determinant 4, recursively: every dependency of the copy must be
    // present at the target or itself resolvable from the bundle.
    visiting.push(soname.to_string());
    let mut verdict: Result<(), ResolutionFailure> = Ok(());
    for dep in &copy.description.needed {
        // Present at the target (loader-visible or findable by search)?
        if memo.present(sess, dep) {
            continue;
        }
        if copy_usable(
            sess,
            bundle,
            dep,
            target_arch,
            target_c_library,
            memo,
            visiting,
        )
        .is_err()
        {
            verdict = Err(ResolutionFailure::DependencyUnresolvable {
                dependency: dep.to_string(),
            });
            break;
        }
    }
    visiting.pop();
    memo.verdicts.insert(soname.to_string(), verdict.clone());
    verdict
}

/// Resolve every library in `missing` from the bundle, staging usable
/// copies (and their transitive missing dependencies) under `staging_dir`.
pub fn resolve_missing(
    sess: &mut Session<'_>,
    bundle: &SourceBundle,
    missing: &[String],
    target_arch: HostArch,
    target_c_library: Option<&VersionName>,
    staging_dir: &str,
) -> ResolutionPlan {
    let mut plan = ResolutionPlan {
        staging_dir: staging_dir.to_string(),
        ..Default::default()
    };
    let mut memo = Decisions::default();
    let mut to_stage: Vec<String> = Vec::new();
    for soname in missing {
        sess.charge(0.2);
        let mut visiting = Vec::new();
        match copy_usable(
            sess,
            bundle,
            soname,
            target_arch,
            target_c_library,
            &mut memo,
            &mut visiting,
        ) {
            Ok(()) => {
                sess.recorder.event(
                    "resolution",
                    &[
                        ("soname", soname.as_str().into()),
                        ("outcome", "staged".into()),
                    ],
                );
                sess.recorder.count("resolution.staged", 1);
                to_stage.push(soname.clone());
                plan.outcomes.push(LibraryResolution::Staged {
                    soname: soname.clone(),
                    staged_path: format!("{staging_dir}/{soname}"),
                });
            }
            Err(reason) => {
                sess.recorder.event(
                    "resolution",
                    &[
                        ("soname", soname.as_str().into()),
                        ("outcome", "failed".into()),
                        ("class", reason.class().into()),
                        ("reason", reason.to_string().as_str().into()),
                    ],
                );
                sess.recorder.count("resolution.failed", 1);
                sess.recorder
                    .count(&format!("resolution.failed.{}", reason.class()), 1);
                plan.outcomes.push(LibraryResolution::Failed {
                    soname: soname.clone(),
                    reason,
                });
            }
        }
    }
    // Stage resolved copies plus the transitive bundle dependencies they
    // pull in.
    let mut staged_set = std::collections::BTreeSet::new();
    while let Some(soname) = to_stage.pop() {
        if !staged_set.insert(soname.clone()) {
            continue;
        }
        let Some(copy) = bundle.libraries.get(&soname) else {
            continue;
        };
        let path = format!("{staging_dir}/{soname}");
        sess.stage_file(&path, copy.bytes.clone());
        plan.staged.push((path, copy.bytes.clone()));
        for dep in &copy.description.needed {
            if !memo.present(sess, dep)
                && bundle.libraries.contains_key(dep.as_str())
                && !staged_set.contains(dep.as_str())
            {
                to_stage.push(dep.to_string());
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdc::{BinaryDescription, LibraryCopy};
    use crate::edc::EnvironmentDescription;
    use feam_elf::{Class, ElfSpec, ImportSpec, Machine};
    use feam_sim::site::{OsInfo, Site, SiteConfig};
    use feam_sim::toolchain::{Compiler, CompilerFamily};

    fn target_site() -> Site {
        let mut cfg = SiteConfig::new(
            "resolve-target",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            31,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        Site::build(cfg)
    }

    fn lib_copy(soname: &str, glibc_req: &str, needed: &[&str]) -> LibraryCopy {
        let mut spec = ElfSpec::shared_library(soname, Machine::X86_64, Class::Elf64);
        spec.needed = needed.iter().map(|s| s.to_string()).collect();
        spec.imports = vec![ImportSpec::versioned("memcpy", "libc.so.6", glibc_req)];
        let bytes = Arc::new(spec.build().unwrap());
        let description =
            BinaryDescription::from_bytes(&format!("/gee/lib/{soname}"), &bytes).unwrap();
        LibraryCopy {
            soname: soname.to_string(),
            origin: format!("/gee/lib/{soname}"),
            bytes,
            description: Arc::new(description),
        }
    }

    fn bundle_with(libs: Vec<LibraryCopy>) -> SourceBundle {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let app_bytes = spec.build().unwrap();
        SourceBundle {
            gee_site: "gee".into(),
            app: Arc::new(BinaryDescription::from_bytes("/gee/app", &app_bytes).unwrap()),
            gee_env: Arc::new(EnvironmentDescription {
                isa: "x86_64".into(),
                arch: Some(HostArch::X86_64),
                os: "gee os".into(),
                c_library: VersionName::parse("GLIBC_2.12"),
                env_mgmt: None,
                available_stacks: vec![],
                loaded_stack: None,
                unobserved: vec![],
            }),
            app_stack_ident: None,
            libraries: libs.into_iter().map(|l| (l.soname.clone(), l)).collect(),
            hello_worlds: vec![],
            faults_seen: 0,
        }
    }

    #[test]
    fn portable_copy_resolves_and_stages() {
        let site = target_site();
        let mut sess = Session::new(&site);
        let bundle = bundle_with(vec![lib_copy("libpgf90.so", "GLIBC_2.2.5", &["libc.so.6"])]);
        let target_glibc = site.glibc_version();
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libpgf90.so".to_string()],
            HostArch::X86_64,
            Some(&target_glibc),
            "/home/user/feam/libs",
        );
        assert!(plan.complete());
        assert_eq!(plan.staged_count(), 1);
        assert!(sess.exists("/home/user/feam/libs/libpgf90.so"));
    }

    #[test]
    fn hot_glibc_copy_rejected_at_old_site() {
        let site = target_site(); // glibc 2.5
        let mut sess = Session::new(&site);
        let bundle = bundle_with(vec![lib_copy(
            "libgfortran.so.3",
            "GLIBC_2.12",
            &["libc.so.6"],
        )]);
        let target_glibc = site.glibc_version();
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libgfortran.so.3".to_string()],
            HostArch::X86_64,
            Some(&target_glibc),
            "/home/user/feam/libs",
        );
        assert!(!plan.complete());
        let fails = plan.failures();
        assert_eq!(fails.len(), 1);
        assert!(matches!(
            fails[0].1,
            ResolutionFailure::CLibraryIncompatible { .. }
        ));
        assert_eq!(plan.staged_count(), 0);
    }

    #[test]
    fn missing_from_bundle_reported() {
        let site = target_site();
        let mut sess = Session::new(&site);
        let bundle = bundle_with(vec![]);
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libweird.so.4".to_string()],
            HostArch::X86_64,
            None,
            "/tmp/s",
        );
        assert!(!plan.complete());
        assert!(matches!(
            plan.failures()[0].1,
            ResolutionFailure::NoCopyAvailable
        ));
    }

    #[test]
    fn transitive_dependency_staged_too() {
        let site = target_site();
        let mut sess = Session::new(&site);
        // libA needs libB; both absent at target, both in bundle.
        let bundle = bundle_with(vec![
            lib_copy("libA.so.1", "GLIBC_2.2.5", &["libB.so.1", "libc.so.6"]),
            lib_copy("libB.so.1", "GLIBC_2.2.5", &["libc.so.6"]),
        ]);
        let target_glibc = site.glibc_version();
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libA.so.1".to_string()],
            HostArch::X86_64,
            Some(&target_glibc),
            "/stage",
        );
        assert!(plan.complete());
        assert_eq!(plan.staged_count(), 2, "dependency must be staged too");
        assert!(sess.exists("/stage/libB.so.1"));
    }

    #[test]
    fn unresolvable_dependency_poisons_the_copy() {
        let site = target_site(); // glibc 2.5
        let mut sess = Session::new(&site);
        // libA depends on libB whose copy needs glibc 2.12.
        let bundle = bundle_with(vec![
            lib_copy("libA.so.1", "GLIBC_2.2.5", &["libB.so.1", "libc.so.6"]),
            lib_copy("libB.so.1", "GLIBC_2.12", &["libc.so.6"]),
        ]);
        let target_glibc = site.glibc_version();
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libA.so.1".to_string()],
            HostArch::X86_64,
            Some(&target_glibc),
            "/stage",
        );
        assert!(!plan.complete());
        assert!(matches!(
            plan.failures()[0].1,
            ResolutionFailure::DependencyUnresolvable { .. }
        ));
    }

    #[test]
    fn failure_classes_counted_per_cause() {
        let site = target_site(); // glibc 2.5
        let (rec, _sink) = feam_obs::Recorder::memory();
        let mut sess = Session::with_recorder(&site, rec.clone());
        let bundle = bundle_with(vec![lib_copy(
            "libgfortran.so.3",
            "GLIBC_2.12",
            &["libc.so.6"],
        )]);
        let target_glibc = site.glibc_version();
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &[
                "libgfortran.so.3".to_string(), // copy needs newer glibc
                "libweird.so.4".to_string(),    // not in bundle at all
            ],
            HostArch::X86_64,
            Some(&target_glibc),
            "/stage",
        );
        assert!(!plan.complete());
        assert_eq!(
            plan.failures()[0].1.class(),
            "c-library-incompatible",
            "classes are stable strings"
        );
        let counters = rec.snapshot().counters;
        assert_eq!(counters.get("resolution.failed"), Some(&2));
        assert_eq!(
            counters.get("resolution.failed.c-library-incompatible"),
            Some(&1)
        );
        assert_eq!(
            counters.get("resolution.failed.no-copy-available"),
            Some(&1)
        );
    }

    #[test]
    fn wrong_isa_copy_rejected() {
        let site = target_site();
        let mut sess = Session::new(&site);
        let mut spec = ElfSpec::shared_library("libppc.so.1", Machine::Ppc64, Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let bytes = Arc::new(spec.build().unwrap());
        let description = BinaryDescription::from_bytes("/gee/libppc.so.1", &bytes).unwrap();
        let bundle = bundle_with(vec![LibraryCopy {
            soname: "libppc.so.1".into(),
            origin: "/gee/libppc.so.1".into(),
            bytes,
            description: Arc::new(description),
        }]);
        let plan = resolve_missing(
            &mut sess,
            &bundle,
            &["libppc.so.1".to_string()],
            HostArch::X86_64,
            None,
            "/stage",
        );
        assert!(matches!(
            plan.failures()[0].1,
            ResolutionFailure::IsaIncompatible(_)
        ));
    }
}
