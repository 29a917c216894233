//! The Target Evaluation Component (§V.C).
//!
//! Joins the BDC's binary description with the EDC's environment
//! description through the prediction model, runs the MPI stack functional
//! tests ("hello world" programs compiled natively and, when a source
//! phase ran, transported from the guaranteed execution environment),
//! applies the resolution model to missing shared libraries, and emits the
//! matching configuration (stack selection + environment variables +
//! staged copies) for the user.

use crate::bdc::{BinaryDescription, MpiIdentification};
use crate::bundle::SourceBundle;
use crate::cache::{Freshness, StackTestKeyParts};
use crate::edc::{self, EnvironmentDescription};
use crate::phases::PhaseConfig;
use crate::predict::{
    c_library_compatible, Determinant, Determination, Prediction, PredictionMode,
};
use crate::resolve::{resolve_missing, ResolutionPlan};
use crate::retry::{compile_with_retry, launch_with_retry};
use feam_sim::compile::ProgramSpec;
use feam_sim::site::{InstalledStack, Session, Site};
use feam_sim::toolchain::Language;
use std::convert::Infallible;
use std::sync::Arc;

/// Staging directory FEAM uses for resolved library copies.
pub const STAGING_DIR: &str = "/home/user/feam/resolved";
/// Path the migrated application binary is staged at.
pub const APP_PATH: &str = "/home/user/feam/app.bin";

/// The site configuration FEAM composes for execution (the paper's
/// "description of the matching configuration details … along with a
/// script that will set them up automatically on execution").
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Index into the site's stacks of the selected MPI stack.
    pub stack_index: Option<usize>,
    /// Its identifier, for reports.
    pub stack_ident: Option<String>,
    /// Launch command (`mpiexec` unless the user's configuration overrides
    /// it, §V.C).
    pub launch_command: Option<String>,
    /// Directories to prepend to `LD_LIBRARY_PATH` (search-found library
    /// locations plus the resolution staging directory).
    pub extra_ld_dirs: Vec<String>,
    /// Library copies to stage, as (path, bytes).
    pub staged: Vec<(String, Arc<Vec<u8>>)>,
}

impl ExecutionPlan {
    /// Materialize the plan as a session at `site` (the setup script's
    /// effect): module load, `LD_LIBRARY_PATH` additions, staged copies.
    pub fn apply<'s>(&self, site: &'s Site) -> Session<'s> {
        let mut sess = Session::new(site);
        if let Some(idx) = self.stack_index {
            if let Some(ist) = site.stacks.get(idx) {
                sess.load_stack(ist);
            }
        }
        for (path, bytes) in &self.staged {
            sess.stage_file(path, bytes.clone());
        }
        for dir in &self.extra_ld_dirs {
            feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", dir);
        }
        sess
    }

    /// Render as the setup shell script FEAM writes for the user.
    pub fn setup_script(&self) -> String {
        let mut s = String::from("#!/bin/sh\n# FEAM-generated site configuration\n");
        if let Some(ident) = &self.stack_ident {
            s.push_str(&format!("module load {ident}\n"));
        }
        for dir in &self.extra_ld_dirs {
            s.push_str(&format!("export LD_LIBRARY_PATH={dir}:$LD_LIBRARY_PATH\n"));
        }
        for (path, _) in &self.staged {
            s.push_str(&format!("# staged library copy: {path}\n"));
        }
        let launch = self.launch_command.as_deref().unwrap_or("mpiexec");
        s.push_str(&format!("{launch} -np $NPROCS ./$APP\n"));
        s
    }
}

/// One stack functional-test result, for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackTest {
    pub stack_ident: String,
    /// Native hello world compiled and ran?
    pub native_ok: bool,
    /// Transported hello world ran (None when not available)?
    pub transported_ok: Option<bool>,
}

/// The complete TEC output for one (binary, target site) pair.
#[derive(Debug, Clone)]
pub struct TargetEvaluation {
    pub prediction: Prediction,
    /// Best-effort execution configuration, present even when the
    /// prediction is negative (used for ground-truth comparison).
    pub plan: ExecutionPlan,
    /// Resolution outcomes, when the resolution model ran.
    pub resolution: Option<ResolutionPlan>,
    /// Per-stack functional test log.
    pub stack_tests: Vec<StackTest>,
    /// Simulated CPU seconds consumed by the evaluation.
    pub cpu_seconds: f64,
    /// Fraction of determinants positively decided (mirrors
    /// [`Prediction::confidence`], denormalized for reports).
    pub confidence: f64,
    /// True when any determinant came back `Unknown` (mirrors
    /// [`Prediction::degraded`]).
    pub degraded: bool,
}

impl TargetEvaluation {
    /// Assemble an evaluation, deriving the confidence/degradation summary
    /// from the prediction — the single construction path, so the summary
    /// fields can never drift from the verdict list.
    pub fn conclude(
        prediction: Prediction,
        plan: ExecutionPlan,
        resolution: Option<ResolutionPlan>,
        stack_tests: Vec<StackTest>,
        cpu_seconds: f64,
    ) -> Self {
        let confidence = prediction.confidence();
        let degraded = prediction.degraded();
        TargetEvaluation {
            prediction,
            plan,
            resolution,
            stack_tests,
            cpu_seconds,
            confidence,
            degraded,
        }
    }
}

/// Record a determinant verdict in the prediction and mirror it into the
/// trace (`determinant` event) and the metrics
/// (`determinant.<Name>.pass|fail` counters), so a trace alone is enough
/// to reconstruct why a prediction came out the way it did.
fn record_determinant(
    rec: &feam_obs::Recorder,
    prediction: &mut Prediction,
    determinant: Determinant,
    verdict: Determination,
    detail: impl Into<String>,
) {
    let detail = detail.into();
    rec.event(
        "determinant",
        &[
            ("determinant", determinant.name().into()),
            ("ok", (verdict == Determination::Compatible).into()),
            ("verdict", verdict.label().into()),
            ("detail", detail.as_str().into()),
        ],
    );
    rec.count(determinant_counter(determinant, verdict), 1);
    if verdict == Determination::Unknown {
        rec.event(
            "degraded_verdict",
            &[
                ("determinant", determinant.name().into()),
                ("detail", detail.as_str().into()),
            ],
        );
        rec.count("prediction.degraded_verdicts", 1);
    }
    prediction.record_determination(determinant, verdict, detail);
}

/// `determinant.<Name>.<pass|fail|unknown>`: the counter a verdict bumps,
/// named without building a string.
fn determinant_counter(determinant: Determinant, verdict: Determination) -> &'static str {
    use Determinant::*;
    use Determination::*;
    match (determinant, verdict) {
        (Isa, Compatible) => "determinant.Isa.pass",
        (Isa, Incompatible) => "determinant.Isa.fail",
        (Isa, Unknown) => "determinant.Isa.unknown",
        (MpiStack, Compatible) => "determinant.MpiStack.pass",
        (MpiStack, Incompatible) => "determinant.MpiStack.fail",
        (MpiStack, Unknown) => "determinant.MpiStack.unknown",
        (CLibrary, Compatible) => "determinant.CLibrary.pass",
        (CLibrary, Incompatible) => "determinant.CLibrary.fail",
        (CLibrary, Unknown) => "determinant.CLibrary.unknown",
        (SharedLibraries, Compatible) => "determinant.SharedLibraries.pass",
        (SharedLibraries, Incompatible) => "determinant.SharedLibraries.fail",
        (SharedLibraries, Unknown) => "determinant.SharedLibraries.unknown",
    }
}

/// Compile and launch a native MPI hello world with `ist` loaded: the
/// §III.B functional test of an advertised stack.
fn native_hello_world(sess: &mut Session<'_>, ist: &InstalledStack, cfg: &PhaseConfig) -> bool {
    sess.charge(12.0); // native compile cost
    let spec = ProgramSpec::mpi_hello_world(Language::C);
    let Ok(hello) = compile_with_retry(sess, Some(ist), &spec, cfg.seed, &cfg.retry) else {
        return false;
    };
    sess.stage_file("/home/user/feam/hello_native", hello.image.clone());
    launch_with_retry(
        sess,
        "/home/user/feam/hello_native",
        ist,
        cfg.nprocs,
        &cfg.retry,
    )
    .success
}

/// Why a candidate stack that passed its native hello world still falls
/// short of a positive prediction.
enum Shortfall {
    /// Shared libraries missing or unresolvable under this stack; the
    /// detail names them.
    Libraries(String),
    /// The transported hello world failed: an ABI or floating-point
    /// incompatibility of the stack itself.
    Transported,
}

/// A candidate stack that passed its native hello world; its plan names
/// the stack.
struct Candidate {
    plan: ExecutionPlan,
    resolution: Option<ResolutionPlan>,
    transported_ok: Option<bool>,
    /// The shared-library detail when every check passed, else the
    /// shortfall.
    libs: Result<String, Shortfall>,
}

/// Evaluate execution readiness of a binary at a target site.
///
/// `binary_image` is the migrated binary when present at the target;
/// `bundle` is the (optional) source-phase output. At least one of the two
/// must provide a description — with both absent there is nothing to
/// evaluate (callers enforce this).
pub fn evaluate(
    site: &Site,
    description: &BinaryDescription,
    binary_image: Option<&Arc<Vec<u8>>>,
    env: &EnvironmentDescription,
    bundle: Option<&SourceBundle>,
    cfg: &PhaseConfig,
) -> TargetEvaluation {
    let rec = cfg.recorder.clone();
    let _tec_span = rec.span("tec");
    let mode = if bundle.is_some() {
        PredictionMode::Extended
    } else {
        PredictionMode::Basic
    };
    let mut prediction = Prediction::new(mode);
    let mut cpu = 0.0f64;

    // ---- Determinant 1: ISA --------------------------------------------------
    let isa_verdict = match env.arch {
        Some(a) => Determination::of(a.executes(description.machine, description.class)),
        // The target's ISA could not be parsed — no basis to veto, no
        // basis to pass: degrade instead of deciding.
        None => Determination::Unknown,
    };
    record_determinant(
        &rec,
        &mut prediction,
        Determinant::Isa,
        isa_verdict,
        format!(
            "binary is {} {}-bit; target reports {}",
            description.machine.name(),
            description.class.bits(),
            if env.isa.is_empty() {
                "unknown"
            } else {
                &env.isa
            }
        ),
    );

    // ---- Determinant 3 (checked second, §V.C): C library ----------------------
    let clib_unobservable = description.required_glibc.is_some()
        && env.c_library.is_none()
        && env.unobserved.iter().any(|u| u == "c_library");
    let clib_verdict = if clib_unobservable {
        // The target has a C library — we just could not read its banner
        // after retries. Degrade rather than veto on absent evidence.
        Determination::Unknown
    } else {
        Determination::of(c_library_compatible(
            description.required_glibc.as_ref(),
            env.c_library.as_ref(),
        ))
    };
    record_determinant(
        &rec,
        &mut prediction,
        Determinant::CLibrary,
        clib_verdict,
        format!(
            "binary requires {}; target provides {}",
            description
                .required_glibc
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_else(|| "none".into()),
            env.c_library
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_else(|| if clib_unobservable {
                    "unobservable (description faults persisted through retries)".into()
                } else {
                    "unknown".into()
                }),
        ),
    );

    // Naive fallback plan: first advertised stack of the matching MPI type.
    // When direct evidence is absent the provenance claims stand in — at
    // their calibrated confidence, never upgraded to a hard verdict.
    let bin_impl = match description.mpi {
        MpiIdentification::Identified(i) => Some(i),
        MpiIdentification::NotMpi => None,
    };
    let prov = description.provenance.as_ref();
    let prov_compiler = prov.and_then(|p| p.compiler.as_ref()).map(|c| c.family);
    let prov_mpi = prov.and_then(|p| p.mpi_stack.as_ref());
    let bin_compiler = feam_sim::exec::compiler_from_comments(&description.comments)
        .map(|(f, _)| f)
        .or(prov_compiler);
    let plan = naive_plan(
        site,
        env,
        bin_impl.or(prov_mpi.map(|m| m.implementation)),
        bin_compiler,
    );

    if isa_verdict == Determination::Incompatible || clib_verdict == Determination::Incompatible {
        // §V.C: "If at any point we determine that execution cannot occur,
        // the reasons are detailed to the user." Unknown verdicts do not
        // stop here — evaluation continues on partial evidence.
        return TargetEvaluation::conclude(prediction, plan, None, Vec::new(), cpu);
    }

    // ---- Determinant 2: a functioning, compatible MPI stack -------------------
    let Some(bin_impl) = bin_impl else {
        if !description.is_dynamic {
            // Statically linked: the DT_NEEDED channel does not exist, so
            // its silence is not evidence the binary is non-MPI. Degrade on
            // the provenance claim (calibrated below direct evidence)
            // instead of vetoing.
            let detail = match prov_mpi {
                Some(m) => format!(
                    "statically linked; provenance claims {} ({}, confidence {:.2})",
                    m.implementation.name(),
                    m.tier.label(),
                    m.confidence
                ),
                None => "statically linked; no provenance signal for an MPI runtime".to_string(),
            };
            record_determinant(
                &rec,
                &mut prediction,
                Determinant::MpiStack,
                Determination::Unknown,
                detail,
            );
            record_determinant(
                &rec,
                &mut prediction,
                Determinant::SharedLibraries,
                Determination::Compatible,
                "statically linked; no shared library dependencies",
            );
            return TargetEvaluation::conclude(prediction, plan, None, Vec::new(), cpu);
        }
        record_determinant(
            &rec,
            &mut prediction,
            Determinant::MpiStack,
            Determination::Incompatible,
            "binary is not an MPI application",
        );
        return TargetEvaluation::conclude(prediction, plan, None, Vec::new(), cpu);
    };
    let candidates = env.stacks_of(bin_impl);
    if candidates.is_empty() {
        record_determinant(
            &rec,
            &mut prediction,
            Determinant::MpiStack,
            Determination::Incompatible,
            format!("no {} installation advertised at target", bin_impl.name()),
        );
        return TargetEvaluation::conclude(prediction, plan, None, Vec::new(), cpu);
    }

    let mut stack_tests = Vec::new();
    // The first candidate to pass every check, else the first functioning
    // one (the best-effort plan and its failure detail).
    let mut chosen: Option<Candidate> = None;
    for cand in &candidates {
        let Some(ist) = edc::find_installed(site, cand) else {
            continue;
        };
        let ident = cand.ident();
        let mut sess = cfg.session(site);
        sess.load_stack(ist);

        // Native hello-world functional test (§III.B: "Our methods decide
        // an MPI stack is useable if a basic MPI program is able to be
        // executed when the MPI stack is selected"). The verdict depends
        // only on (site, stack, seed, nprocs) — never on the binary under
        // evaluation — so it is memoized across evaluations when caches
        // are installed, under the EDC's configuration epoch.
        let native_ok = match cfg.caches.as_deref() {
            Some(c) => {
                let key = (site.name(), ident.as_str(), cfg.seed, cfg.nprocs);
                let fresh = Freshness {
                    epoch: c.edc.epoch(site.name()),
                    ..Freshness::default()
                };
                let test =
                    |s: &mut Session<'_>| Ok::<_, Infallible>(native_hello_world(s, ist, cfg));
                let key: &dyn StackTestKeyParts = &key;
                let Ok(ok) = c.stack_tests.memoize(&mut sess, key, fresh, test, |_| true);
                ok
            }
            None => native_hello_world(&mut sess, ist, cfg),
        };
        if !native_ok {
            if rec.is_enabled() {
                let fields = [
                    ("stack", ident.as_str().into()),
                    ("native_ok", false.into()),
                ];
                rec.event("stack_test", &fields);
            }
            rec.count("stack_tests.failed", 1);
            stack_tests.push(StackTest {
                stack_ident: ident,
                native_ok: false,
                transported_ok: None,
            });
            cpu += sess.cpu_seconds;
            continue; // advertised but not useable; try the next stack
        }

        // ---- Determinant 4: shared libraries under this stack ----------------
        // Without the binary (bundle-only evaluation) the survey works from
        // the description gathered at the GEE.
        let binary = binary_image.map(|image| (APP_PATH, image));
        let (missing, extra_dirs) = edc::survey_libraries(&mut sess, &description.needed, binary);
        for d in &extra_dirs {
            feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", d);
        }

        // Resolution (extended mode only, §V.C: "Resolution can proceed if
        // a Source Phase has occurred").
        let mut resolution: Option<ResolutionPlan> = None;
        let mut libs = if missing.is_empty() {
            Ok("all required shared libraries present".to_string())
        } else {
            Err(format!("missing: {}", missing.join(", ")))
        };
        if !missing.is_empty() && !cfg.disable_resolution {
            // Resolution needs the target ISA to vet copies; when the ISA
            // determinant came back Unknown there is no arch to vet
            // against, so resolution is skipped (degraded path).
            if let (Some(bundle), Some(arch)) = (bundle, env.arch) {
                let rp = resolve_missing(
                    &mut sess,
                    bundle,
                    &missing,
                    arch,
                    env.c_library.as_ref(),
                    STAGING_DIR,
                );
                if rp.complete() {
                    libs = Ok(format!(
                        "{} missing shared libraries resolved via copies from {}",
                        rp.staged_count(),
                        bundle.gee_site
                    ));
                    feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", STAGING_DIR);
                } else {
                    let fails: Vec<String> = rp
                        .failures()
                        .iter()
                        .map(|(so, why)| format!("{so}: {why}"))
                        .collect();
                    libs = Err(format!("unresolvable: {}", fails.join("; ")));
                }
                resolution = Some(rp);
            }
        }

        // Extended compatibility test: run the transported hello world
        // under the composed environment (catches ABI and floating-point
        // incompatibilities the static checks cannot see).
        let transported_probe = if cfg.disable_transported_tests {
            None
        } else {
            bundle.and_then(|b| {
                b.hello_world(Language::C)
                    .or_else(|| b.hello_worlds.first())
            })
        };
        let transported_ok = match transported_probe {
            Some(probe) => {
                sess.stage_file("/home/user/feam/hello_transported", probe.image.clone());
                let ok = launch_with_retry(
                    &mut sess,
                    "/home/user/feam/hello_transported",
                    ist,
                    cfg.nprocs,
                    &cfg.retry,
                )
                .success;
                Some(ok)
            }
            None => None,
        };
        if rec.is_enabled() {
            let mut fields: Vec<(&str, feam_obs::FieldValue)> =
                vec![("stack", ident.as_str().into()), ("native_ok", true.into())];
            if let Some(t) = transported_ok {
                fields.push(("transported_ok", t.into()));
            }
            rec.event("stack_test", &fields);
        }
        rec.count("stack_tests.passed", 1);
        stack_tests.push(StackTest {
            stack_ident: ident.clone(),
            native_ok: true,
            transported_ok,
        });

        // Assemble this candidate's plan.
        let mut cand_plan = ExecutionPlan {
            stack_index: site.stacks.iter().position(|s| s.prefix == ist.prefix),
            stack_ident: Some(ident),
            launch_command: cfg.mpiexec_override.clone(),
            extra_ld_dirs: extra_dirs,
            staged: resolution
                .as_ref()
                .map(|r| r.staged.clone())
                .unwrap_or_default(),
        };
        if !cand_plan.staged.is_empty() {
            cand_plan.extra_ld_dirs.push(STAGING_DIR.to_string());
        }
        cpu += sess.cpu_seconds;

        let libs = if transported_ok == Some(false) {
            Err(Shortfall::Transported)
        } else {
            libs.map_err(Shortfall::Libraries)
        };
        let ready = libs.is_ok();
        if ready || chosen.is_none() {
            chosen = Some(Candidate {
                plan: cand_plan,
                resolution,
                transported_ok,
                libs,
            });
        }
        if ready {
            break;
        }
    }

    // The MpiStack and SharedLibraries verdicts, from the chosen candidate.
    let Some(chosen) = chosen else {
        record_determinant(
            &rec,
            &mut prediction,
            Determinant::MpiStack,
            Determination::Incompatible,
            format!(
                "{} advertised at target but no stack passed the hello-world test",
                bin_impl.name()
            ),
        );
        return TargetEvaluation::conclude(prediction, plan, None, stack_tests, cpu);
    };
    use Determination::{Compatible, Incompatible};
    let name = bin_impl.name();
    let ident = chosen.plan.stack_ident.as_deref().unwrap_or_default();
    let ((verdict, detail), libs) = match chosen.libs {
        Ok(detail) => {
            let probe = match chosen.transported_ok {
                Some(true) => "transported",
                _ => "native",
            };
            let stack = format!("functioning {name} stack: {ident} ({probe} hello world passed)");
            ((Compatible, stack), Some((Compatible, detail)))
        }
        Err(Shortfall::Libraries(detail)) => {
            let stack = format!("functioning {name} stack: {ident}");
            ((Compatible, stack), Some((Incompatible, detail)))
        }
        Err(Shortfall::Transported) => {
            let stack = format!(
                "stack {ident} functioning but transported hello world failed (ABI/FP incompatibility)"
            );
            ((Incompatible, stack), None)
        }
    };
    record_determinant(
        &rec,
        &mut prediction,
        Determinant::MpiStack,
        verdict,
        detail,
    );
    if let Some((verdict, detail)) = libs {
        let determinant = Determinant::SharedLibraries;
        record_determinant(&rec, &mut prediction, determinant, verdict, detail);
    }
    TargetEvaluation::conclude(prediction, chosen.plan, chosen.resolution, stack_tests, cpu)
}

/// The configuration a scientist without FEAM would use: `module load` a
/// stack of the matching MPI implementation — preferring one built with
/// the same compiler family when the user knows it — and nothing else
/// (Table IV's "before resolution" baseline).
pub fn naive_plan(
    site: &Site,
    env: &EnvironmentDescription,
    bin_impl: Option<feam_sim::mpi::MpiImpl>,
    compiler_family: Option<feam_sim::toolchain::CompilerFamily>,
) -> ExecutionPlan {
    let Some(imp) = bin_impl else {
        return ExecutionPlan::default();
    };
    let candidates = env.stacks_of(imp);
    let preferred = compiler_family
        .and_then(|fam| candidates.iter().find(|c| c.compiler == fam.tag()).copied());
    for cand in preferred.into_iter().chain(candidates.iter().copied()) {
        if let Some(ist) = edc::find_installed(site, cand) {
            return ExecutionPlan {
                stack_index: site.stacks.iter().position(|s| s.prefix == ist.prefix),
                stack_ident: Some(cand.ident()),
                launch_command: None,
                extra_ld_dirs: Vec::new(),
                staged: Vec::new(),
            };
        }
    }
    ExecutionPlan::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdc::BinaryDescription;
    use crate::edc::discover;
    use feam_sim::compile::{compile as sim_compile, ProgramSpec};
    use feam_workloads::sites::{standard_sites, FIR, RANGER};

    #[test]
    fn determinant_counters_keep_their_names() {
        let verdicts = [
            (Determination::Compatible, "pass"),
            (Determination::Incompatible, "fail"),
            (Determination::Unknown, "unknown"),
        ];
        for d in Determinant::evaluation_order() {
            for (v, tag) in verdicts {
                let name = format!("determinant.{}.{tag}", d.name());
                assert_eq!(determinant_counter(d, v), name);
            }
        }
    }

    fn cfg() -> PhaseConfig {
        PhaseConfig::default()
    }

    #[test]
    fn self_migration_predicts_ready() {
        // A binary evaluated at its own build site must be predicted ready.
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let ist = fir.stacks[0].clone();
        let bin = sim_compile(
            fir,
            Some(&ist),
            &ProgramSpec::new("cg", feam_sim::toolchain::Language::Fortran),
            13,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/cg", &bin.image).unwrap();
        let mut sess = Session::new(fir);
        let env = discover(&mut sess);
        let eval = evaluate(fir, &desc, Some(&bin.image), &env, None, &cfg());
        assert!(
            eval.prediction.ready(),
            "self-migration must be ready: {:?}",
            eval.prediction.first_failure()
        );
        assert!(eval.plan.stack_ident.is_some());
        assert!(eval.cpu_seconds > 0.0);
    }

    #[test]
    fn glibc_too_new_predicts_not_ready_before_stack_tests() {
        let sites = standard_sites(13);
        let forge = &sites[feam_workloads::sites::FORGE];
        let ranger = &sites[RANGER];
        // Build at Forge with maximum glibc appetite → requires 2.12.
        let ist = forge.stacks[0].clone();
        let mut prog = ProgramSpec::new("hot", feam_sim::toolchain::Language::C);
        prog.glibc_appetite = 1.0;
        let bin = sim_compile(forge, Some(&ist), &prog, 13).unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/hot", &bin.image).unwrap();
        // Evaluate at Ranger (glibc 2.3.4).
        let mut sess = Session::new(ranger);
        let env = discover(&mut sess);
        let eval = evaluate(ranger, &desc, Some(&bin.image), &env, None, &cfg());
        assert!(!eval.prediction.ready());
        assert_eq!(
            eval.prediction.first_failure().unwrap().determinant,
            Determinant::CLibrary
        );
        // Evaluation stopped early: no stack tests were run.
        assert!(eval.stack_tests.is_empty());
    }

    #[test]
    fn missing_mpi_impl_predicts_not_ready() {
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let blacklight = &sites[feam_workloads::sites::BLACKLIGHT];
        // MPICH2 binary from Fir; Blacklight has only Open MPI.
        let mpich_stack = fir
            .stacks
            .iter()
            .find(|s| s.stack.mpi == feam_sim::mpi::MpiImpl::Mpich2)
            .unwrap()
            .clone();
        let bin = sim_compile(
            fir,
            Some(&mpich_stack),
            &ProgramSpec::new("is", feam_sim::toolchain::Language::C),
            13,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/is", &bin.image).unwrap();
        let mut sess = Session::new(blacklight);
        let env = discover(&mut sess);
        let eval = evaluate(blacklight, &desc, Some(&bin.image), &env, None, &cfg());
        assert!(!eval.prediction.ready());
        assert_eq!(
            eval.prediction.first_failure().unwrap().determinant,
            Determinant::MpiStack
        );
    }

    #[test]
    fn static_mpi_binary_degrades_to_unknown_with_provenance_plan() {
        // A statically linked MPI binary has no DT_NEEDED channel at all:
        // the stack determinant must degrade to Unknown on the provenance
        // claim — never veto — and shared libraries are trivially satisfied.
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let ist = fir.stacks[0].clone();
        let bin = feam_sim::compile::compile_variant(
            fir,
            Some(&ist),
            &ProgramSpec::new("cg", feam_sim::toolchain::Language::Fortran),
            13,
            feam_sim::compile::BinaryVariant::Static,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/cg", &bin.image).unwrap();
        assert!(!desc.is_dynamic);
        let prov = desc
            .provenance
            .as_ref()
            .expect("fallback evidence attached");
        assert_eq!(
            prov.mpi_stack.as_ref().unwrap().implementation,
            ist.stack.mpi
        );
        let mut sess = Session::new(fir);
        let env = discover(&mut sess);
        let eval = evaluate(fir, &desc, Some(&bin.image), &env, None, &cfg());
        assert!(eval.prediction.degraded(), "MpiStack must be Unknown");
        assert!(eval.prediction.first_failure().is_none(), "never a veto");
        let verdicts = &eval.prediction.verdicts;
        let mpi = verdicts
            .iter()
            .find(|v| v.determinant == Determinant::MpiStack)
            .unwrap();
        assert_eq!(mpi.verdict, Determination::Unknown);
        assert!(mpi.detail.contains("provenance claims"), "{}", mpi.detail);
        let libs = verdicts
            .iter()
            .find(|v| v.determinant == Determinant::SharedLibraries)
            .unwrap();
        assert_eq!(libs.verdict, Determination::Compatible);
        // The plan still names a stack, ranked through the claim.
        assert!(eval.plan.stack_ident.is_some());
        assert!(eval.confidence < 1.0);
    }

    #[test]
    fn static_non_mpi_binary_reports_no_provenance_signal() {
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let mut prog = ProgramSpec::serial_hello_world();
        prog.text_size = 16 * 1024;
        let bin = feam_sim::compile::compile_variant(
            fir,
            None,
            &prog,
            7,
            feam_sim::compile::BinaryVariant::Static,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/tool", &bin.image).unwrap();
        let mut sess = Session::new(fir);
        let env = discover(&mut sess);
        let eval = evaluate(fir, &desc, Some(&bin.image), &env, None, &cfg());
        let mpi = eval
            .prediction
            .verdicts
            .iter()
            .find(|v| v.determinant == Determinant::MpiStack)
            .unwrap();
        assert_eq!(mpi.verdict, Determination::Unknown);
        assert!(
            mpi.detail.contains("no provenance signal"),
            "{}",
            mpi.detail
        );
    }

    #[test]
    fn dynamic_non_mpi_binary_still_vetoes() {
        // The Unknown degrade is reserved for binaries whose DT_NEEDED
        // channel does not exist; a dynamic binary without MPI libraries
        // is positively not an MPI application.
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let bin = sim_compile(fir, None, &ProgramSpec::serial_hello_world(), 7).unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/tool", &bin.image).unwrap();
        assert!(desc.is_dynamic);
        let mut sess = Session::new(fir);
        let env = discover(&mut sess);
        let eval = evaluate(fir, &desc, Some(&bin.image), &env, None, &cfg());
        assert_eq!(
            eval.prediction.first_failure().unwrap().determinant,
            Determinant::MpiStack
        );
    }

    #[test]
    fn stripped_binary_evaluates_like_its_normal_twin() {
        // Stripping loses `.comment` but keeps the dynamic segment route,
        // so the stack determinant works off direct evidence and the
        // provenance report rides along for the compiler claim.
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let ist = fir.stacks[0].clone();
        let prog = ProgramSpec::new("cg", feam_sim::toolchain::Language::Fortran);
        let bin = feam_sim::compile::compile_variant(
            fir,
            Some(&ist),
            &prog,
            13,
            feam_sim::compile::BinaryVariant::Stripped,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/cg", &bin.image).unwrap();
        assert!(desc.comments.is_empty());
        let prov = desc
            .provenance
            .as_ref()
            .expect("fallback evidence attached");
        assert_eq!(
            prov.compiler.as_ref().unwrap().family,
            ist.stack.compiler.family
        );
        let mut sess = Session::new(fir);
        let env = discover(&mut sess);
        let eval = evaluate(fir, &desc, Some(&bin.image), &env, None, &cfg());
        assert!(
            eval.prediction.ready(),
            "{:?}",
            eval.prediction.first_failure()
        );
    }

    #[test]
    fn cooperative_binary_carries_no_provenance_report() {
        let sites = standard_sites(13);
        let fir = &sites[FIR];
        let ist = fir.stacks[0].clone();
        let bin = sim_compile(
            fir,
            Some(&ist),
            &ProgramSpec::new("cg", feam_sim::toolchain::Language::Fortran),
            13,
        )
        .unwrap();
        let desc = BinaryDescription::from_bytes("/home/user/cg", &bin.image).unwrap();
        assert!(!desc.evidence.needs_fallback());
        assert!(desc.provenance.is_none());
    }

    #[test]
    fn missing_library_is_blamed_on_shared_libraries_whatever_its_soname() {
        // The candidate's shortfall is typed, never read back out of its
        // detail text: a missing soname that contains "transported" must
        // not pass for a failed transported hello world.
        let sites = standard_sites(101);
        let india = &sites[feam_workloads::sites::INDIA];
        for missing in ["libfoo.so.1", "libtransported.so.1"] {
            let mut spec =
                feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
            spec.needed = [
                "libmpi.so.0",
                "libnsl.so.1",
                "libutil.so.1",
                missing,
                "libc.so.6",
            ]
            .map(String::from)
            .to_vec();
            let image = Arc::new(spec.build().unwrap());
            let out = crate::phases::run_target_phase(india, Some(&image), None, &cfg());
            let verdict = |d| out.prediction.verdicts.iter().find(|v| v.determinant == d);
            let mpi = verdict(Determinant::MpiStack).expect("MpiStack verdict");
            assert_eq!(mpi.verdict, Determination::Compatible, "{}", mpi.detail);
            let libs = verdict(Determinant::SharedLibraries).expect("libraries verdict");
            assert_eq!(libs.verdict, Determination::Incompatible, "{missing}");
            assert_eq!(libs.detail, format!("missing: {missing}"));
        }
    }

    #[test]
    fn mpi_stack_detail_names_the_planned_stack_when_none_is_ready() {
        // Ranger advertises several functioning Open MPI stacks and none
        // provides libfoo: the MpiStack detail must name the stack the
        // plan configures (the first functioning one), not the last.
        let sites = standard_sites(101);
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = [
            "libmpi.so.0",
            "libnsl.so.1",
            "libutil.so.1",
            "libfoo.so.1",
            "libc.so.6",
        ]
        .map(String::from)
        .to_vec();
        let image = Arc::new(spec.build().unwrap());
        let out = crate::phases::run_target_phase(&sites[RANGER], Some(&image), None, &cfg());
        let planned = out.evaluation.plan.stack_ident.clone().expect("a plan");
        let mpi = out
            .prediction
            .verdicts
            .iter()
            .find(|v| v.determinant == Determinant::MpiStack)
            .expect("MpiStack verdict");
        assert_eq!(mpi.detail, format!("functioning Open MPI stack: {planned}"));
        let functioning = out.evaluation.stack_tests.iter().filter(|t| t.native_ok);
        assert!(functioning.count() > 1, "the case needs several candidates");
    }

    #[test]
    fn setup_script_mentions_stack_and_dirs() {
        let plan = ExecutionPlan {
            stack_index: Some(0),
            stack_ident: Some("openmpi-1.4-gnu-4.1.2".into()),
            launch_command: Some("orterun".into()),
            extra_ld_dirs: vec!["/opt/openmpi-1.4-gnu-4.1.2/lib".into()],
            staged: vec![],
        };
        let script = plan.setup_script();
        assert!(script.contains("module load openmpi-1.4-gnu-4.1.2"));
        assert!(script.contains("LD_LIBRARY_PATH=/opt/openmpi-1.4-gnu-4.1.2/lib"));
        assert!(
            script.contains("orterun -np"),
            "configured launcher used: {script}"
        );
        // Default launcher when no override is configured.
        let plain = ExecutionPlan {
            launch_command: None,
            ..plan.clone()
        };
        assert!(plain.setup_script().contains("mpiexec -np"));
    }
}
