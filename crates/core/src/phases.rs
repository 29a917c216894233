//! FEAM's two phases (§V, Figure 2).
//!
//! * **Source phase** (optional, once per binary, at a guaranteed
//!   execution environment): BDC + EDC gather the binary's description,
//!   copies of its shared libraries, the GEE description and hello-world
//!   probes; the output is bundled for transport.
//! * **Target phase** (required, at every target site): BDC (when the
//!   binary is present) + EDC + TEC produce the prediction, the resolution
//!   plan and the matching configuration.

use crate::bdc::{self, BinaryDescription};
use crate::bundle::{HelloWorldProbe, SourceBundle};
use crate::cache::{content_key_of, Freshness};
use crate::edc::{self, EnvironmentDescription};
use crate::error::{FeamError, Result};
use crate::retry::{compile_with_retry, RetryPolicy};
use crate::tec::{self, TargetEvaluation};
use feam_sim::compile::ProgramSpec;
use feam_sim::faults::FaultPlan;
use feam_sim::site::{Session, Site};
use feam_sim::toolchain::Language;
use std::sync::Arc;

/// User-supplied configuration (§V: "Before running FEAM, a user needs to
/// specify (via a configuration file) a serial and parallel submission
/// script for the site … Our methods by default will use the `mpiexec`
/// command while allowing the user to specify otherwise").
#[derive(Debug, Clone)]
pub struct PhaseConfig {
    /// Serial submission command template.
    pub serial_submit: String,
    /// Parallel submission command template.
    pub parallel_submit: String,
    /// Override of the launch command per MPI type (defaults to mpiexec).
    pub mpiexec_override: Option<String>,
    /// Processes for test launches.
    pub nprocs: u32,
    /// Retry policy for probe compiles, launches and queue submissions
    /// (generalizes §VI.C's five spaced attempts with backoff).
    pub retry: RetryPolicy,
    /// Fault plan injected into every session the phases open (defaults to
    /// the environment-driven plan, which is silent unless
    /// `FEAM_CHAOS_RATE` is set).
    pub faults: Arc<FaultPlan>,
    /// Seed for FEAM's own probe compilations.
    pub seed: u64,
    /// Ablation switch: skip the transported hello-world compatibility
    /// tests even when a bundle is available (isolates what runtime
    /// testing contributes to the extended prediction).
    pub disable_transported_tests: bool,
    /// Ablation switch: skip the resolution model even when a bundle is
    /// available (isolates what library copies contribute).
    pub disable_resolution: bool,
    /// Trace/metrics recorder threaded through both phases. Defaults to
    /// the disabled recorder, which costs one branch per call site.
    pub recorder: feam_obs::Recorder,
    /// Explicit trace context to root this phase's spans under. `None`
    /// (the default) inherits the caller thread's live span — or mints a
    /// fresh trace when there is none, so a directly-driven phase is its
    /// own request. Callers that manage requests across threads (the
    /// service worker pool) set the request's [`feam_obs::TraceCtx`]
    /// here or open an enclosing span via
    /// [`feam_obs::Recorder::span_in`].
    pub ctx: Option<feam_obs::TraceCtx>,
    /// Shared description caches for the serving layer (`feam-svc`).
    /// `None` (the default) disables memoization entirely, so CLI and
    /// sweep behavior is bit-for-bit what it was before caching existed.
    pub caches: Option<Arc<crate::cache::PhaseCaches>>,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            serial_submit: "./run_serial.sh".into(),
            parallel_submit: "./run_parallel.sh".into(),
            mpiexec_override: None,
            nprocs: 4,
            retry: RetryPolicy::default(),
            faults: feam_sim::faults::default_plan(),
            seed: 0xFEA4,
            disable_transported_tests: false,
            disable_resolution: false,
            recorder: feam_obs::Recorder::disabled(),
            ctx: None,
            caches: None,
        }
    }
}

/// Path the source phase stages the application binary at, on the GEE.
pub const SOURCE_APP_PATH: &str = "/home/user/feam/source_app.bin";

/// Describe a binary whose bytes are already in hand and staged at `path`,
/// through the content-addressed BDC memo when caches are configured; a
/// hit is the shared entry, whatever path it was described at.
fn describe_binary_cached(
    sess: &mut Session<'_>,
    path: &str,
    image: &Arc<Vec<u8>>,
    cfg: &PhaseConfig,
) -> Result<Arc<BinaryDescription>> {
    let describe = |s: &mut Session<'_>| BinaryDescription::from_session(s, path).map(Arc::new);
    match cfg.caches.as_deref() {
        // Pointer-memoized: repeat requests for the same registered image
        // skip rehashing its bytes entirely.
        Some(c) => {
            let fresh = Freshness::default();
            c.bdc
                .memoize(sess, &content_key_of(image), fresh, describe, |_| true)
        }
        None => describe(sess),
    }
}

/// Discover the session's environment, through the per-site EDC memo when
/// caches are configured; a hit is the shared entry.
fn discover_cached(sess: &mut Session<'_>, cfg: &PhaseConfig) -> Arc<EnvironmentDescription> {
    let discover = |s: &mut Session<'_>| edc::discover_with_retry(s, &cfg.retry);
    match cfg.caches.as_deref() {
        Some(c) => c.edc.memoize(sess, discover),
        None => Arc::new(discover(sess)),
    }
}

impl PhaseConfig {
    /// Open a session at `site` carrying this configuration's recorder and
    /// fault plan — every session the phases create goes through here so
    /// injected faults and telemetry are threaded uniformly.
    pub fn session<'s>(&self, site: &'s Site) -> Session<'s> {
        let mut sess = Session::with_recorder(site, self.recorder.clone());
        sess.faults = self.faults.clone();
        sess
    }
}

/// Output of a target phase. It reads through to its evaluation, so the
/// prediction is `outcome.prediction`; `outcome.cpu_seconds` is the
/// outcome's own field, the whole phase's charge.
#[derive(Debug, Clone)]
pub struct TargetOutcome {
    /// The full TEC output (prediction, plan, resolution, stack tests).
    pub evaluation: TargetEvaluation,
    /// The environment description gathered at the target (shared with
    /// the EDC memo).
    pub environment: Arc<EnvironmentDescription>,
    /// The binary description used (from the target-site BDC run or from
    /// the bundle; shared with the BDC memo or the bundle).
    pub binary: Arc<BinaryDescription>,
    /// Simulated CPU seconds for the whole phase (§VI.C: "< 5 minutes").
    pub cpu_seconds: f64,
    /// Metrics accumulated by `PhaseConfig::recorder` up to the moment the
    /// phase returned (empty when the recorder is disabled).
    pub telemetry: feam_obs::TelemetrySnapshot,
}

impl std::ops::Deref for TargetOutcome {
    type Target = TargetEvaluation;

    fn deref(&self) -> &TargetEvaluation {
        &self.evaluation
    }
}

/// Run the source phase at a guaranteed execution environment.
///
/// Describes the binary, discovers the environment, matches the binary to
/// the GEE stack it runs under, compiles hello-world probes with that
/// stack, and collects copies + descriptions of every shared library.
pub fn run_source_phase(
    gee: &Site,
    binary: &Arc<Vec<u8>>,
    cfg: &PhaseConfig,
) -> Result<SourceBundle> {
    let rec = cfg.recorder.clone();
    let _phase_span = rec.span_in("source_phase", cfg.ctx);
    let mut sess = cfg.session(gee);
    sess.stage_file(SOURCE_APP_PATH, binary.clone());
    let app = {
        let _span = rec.span("bdc");
        describe_binary_cached(&mut sess, SOURCE_APP_PATH, binary, cfg)?
    };
    let gee_env = {
        let _span = rec.span("edc");
        discover_cached(&mut sess, cfg)
    };

    // Match the application to a GEE stack: same MPI implementation and,
    // when derivable from the .comment provenance, the same compiler
    // family.
    let bdc::MpiIdentification::Identified(imp) = app.mpi else {
        return Err(FeamError::NotAnMpiBinary(SOURCE_APP_PATH.to_string()));
    };
    let comp_family = feam_sim::exec::compiler_from_comments(&app.comments).map(|(f, _)| f);
    let candidates = gee_env.stacks_of(imp);
    let chosen = candidates
        .iter()
        .find(|c| comp_family.map(|f| c.compiler == f.tag()).unwrap_or(true))
        .or_else(|| candidates.first())
        .cloned()
        .cloned();
    let Some(chosen) = chosen else {
        return Err(FeamError::SourcePhaseFailed(format!(
            "no {} stack discovered at {}",
            imp.name(),
            gee.name()
        )));
    };
    let Some(ist) = edc::find_installed(gee, &chosen) else {
        return Err(FeamError::SourcePhaseFailed(format!(
            "discovered stack {} has no loadable installation",
            chosen.ident()
        )));
    };
    sess.load_stack(ist);

    // Confirm the loaded stack matches what the BDC found (§V.B) by
    // running the app's own dependency scan under it, then collect copies.
    let libraries = {
        let _span = rec.span("bdc.collect_libraries");
        bdc::collect_libraries_cached(&mut sess, SOURCE_APP_PATH, cfg.caches.as_deref())?
    };

    // Compile hello worlds with the application's stack for transport.
    let mut hello_worlds = Vec::new();
    for lang in [Language::C, app_language(&app)] {
        sess.charge(12.0);
        if let Ok(hello) = compile_with_retry(
            &mut sess,
            Some(ist),
            &ProgramSpec::mpi_hello_world(lang),
            cfg.seed,
            &cfg.retry,
        ) {
            if hello_worlds
                .iter()
                .all(|h: &HelloWorldProbe| h.language != lang)
            {
                hello_worlds.push(HelloWorldProbe {
                    language: lang,
                    stack_ident: ist.stack.ident(),
                    image: hello.image,
                });
            }
        }
    }

    Ok(SourceBundle {
        gee_site: gee.name().to_string(),
        app,
        gee_env,
        app_stack_ident: Some(ist.stack.ident()),
        libraries,
        hello_worlds,
        faults_seen: sess.faults_seen.get(),
    })
}

/// Guess the application's language from its runtime dependencies (used
/// only to pick which extra hello world to bundle).
fn app_language(app: &BinaryDescription) -> Language {
    if app.needed.iter().any(|n| {
        n.starts_with("libgfortran")
            || n.starts_with("libg2c")
            || n.starts_with("libifcore")
            || n.starts_with("libpgf90")
            || n.starts_with("libmpi_f77")
            || n.starts_with("libmpichf90")
    }) {
        Language::Fortran
    } else if app.needed.iter().any(|n| n.starts_with("libstdc++")) {
        Language::Cxx
    } else {
        Language::C
    }
}

/// Run the target phase at a target site.
///
/// `binary` is the migrated binary when it was copied to the target;
/// `bundle` is the transported source-phase output. At least one must be
/// provided (§V: running both phases "provides the additional benefit of
/// not requiring the application binary to be present at a target site").
pub fn run_target_phase(
    target: &Site,
    binary: Option<&Arc<Vec<u8>>>,
    bundle: Option<&SourceBundle>,
    cfg: &PhaseConfig,
) -> TargetOutcome {
    let rec = cfg.recorder.clone();
    let phase_span = rec.span_in("target_phase", cfg.ctx);
    let mut sess = cfg.session(target);
    let environment = {
        let _span = rec.span("edc");
        discover_cached(&mut sess, cfg)
    };
    let description: Arc<BinaryDescription> = match (binary, bundle) {
        (Some(image), _) => {
            let _span = rec.span("bdc");
            sess.stage_file(tec::APP_PATH, (*image).clone());
            match describe_binary_cached(&mut sess, tec::APP_PATH, image, cfg) {
                Ok(d) => d,
                // Graceful degradation: the staged binary could not be read
                // back (injected VFS fault or corrupt copy). Fall back to
                // the bundle's description when a source phase ran;
                // otherwise return an all-Unknown degraded prediction
                // instead of panicking.
                Err(_) if bundle.is_some() => {
                    rec.count("bdc.fallback_to_bundle", 1);
                    Arc::clone(&bundle.expect("checked above").app)
                }
                Err(e) => {
                    let mut prediction =
                        crate::predict::Prediction::new(crate::predict::PredictionMode::Basic);
                    for d in crate::predict::Determinant::evaluation_order() {
                        prediction.record_unknown(
                            d,
                            format!("binary unreadable at target ({e}); determinant unobservable"),
                        );
                    }
                    rec.event(
                        "degraded_verdict",
                        &[("reason", "binary-unreadable".into())],
                    );
                    let evaluation = TargetEvaluation::conclude(
                        prediction,
                        Default::default(),
                        None,
                        Vec::new(),
                        sess.cpu_seconds,
                    );
                    drop(phase_span);
                    return TargetOutcome {
                        evaluation,
                        environment,
                        binary: Arc::new(empty_description()),
                        cpu_seconds: sess.cpu_seconds,
                        telemetry: rec.snapshot(),
                    };
                }
            }
        }
        (None, Some(b)) => {
            let _span = rec.span("bdc");
            Arc::clone(&b.app)
        }
        (None, None) => {
            // Nothing to evaluate; produce an empty negative outcome.
            let mut prediction =
                crate::predict::Prediction::new(crate::predict::PredictionMode::Basic);
            prediction.record(
                crate::predict::Determinant::Isa,
                false,
                "no binary and no bundle provided",
            );
            let evaluation = TargetEvaluation::conclude(
                prediction,
                Default::default(),
                None,
                Vec::new(),
                sess.cpu_seconds,
            );
            drop(phase_span);
            return TargetOutcome {
                evaluation,
                environment,
                binary: Arc::new(empty_description()),
                cpu_seconds: sess.cpu_seconds,
                telemetry: rec.snapshot(),
            };
        }
    };
    let evaluation = tec::evaluate(target, &description, binary, &environment, bundle, cfg);
    let cpu_seconds = sess.cpu_seconds + evaluation.cpu_seconds;
    drop(phase_span);
    TargetOutcome {
        evaluation,
        environment,
        binary: description,
        cpu_seconds,
        telemetry: rec.snapshot(),
    }
}

fn empty_description() -> BinaryDescription {
    BinaryDescription {
        format: String::new(),
        machine: feam_elf::Machine::Other(0),
        class: feam_elf::Class::Elf64,
        kind: feam_elf::FileKind::Other(0),
        is_dynamic: false,
        needed: Vec::new(),
        soname: None,
        embedded_version: None,
        required_glibc: None,
        version_refs: Vec::new(),
        mpi: bdc::MpiIdentification::NotMpi,
        comments: Vec::new(),
        build_env: Default::default(),
        abi_tag: None,
        evidence: Default::default(),
        provenance: None,
        size: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_sim::compile::{compile as sim_compile, ProgramSpec};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, FIR, INDIA, RANGER};

    fn build_at(sites: &[feam_sim::site::Site], site_idx: usize, stack_idx: usize) -> Arc<Vec<u8>> {
        let site = &sites[site_idx];
        let ist = site.stacks[stack_idx].clone();
        sim_compile(
            site,
            Some(&ist),
            &ProgramSpec::new("bt", Language::Fortran),
            99,
        )
        .unwrap()
        .image
    }

    #[test]
    fn source_phase_bundles_libraries_and_hello_worlds() {
        let sites = standard_sites(23);
        let fir = &sites[FIR];
        let image = build_at(&sites, FIR, 1); // openmpi-gnu
        let bundle = run_source_phase(fir, &image, &PhaseConfig::default()).unwrap();
        assert_eq!(bundle.gee_site, "fir");
        assert!(!bundle.libraries.is_empty(), "must copy shared libraries");
        // The C library is never copied.
        assert!(!bundle.libraries.contains_key("libc.so.6"));
        // MPI and Fortran runtime copies are present.
        assert!(bundle.libraries.keys().any(|k| k.starts_with("libmpi")));
        assert!(bundle
            .libraries
            .keys()
            .any(|k| k.starts_with("libgfortran")));
        // Hello worlds: C plus the app's Fortran.
        assert!(bundle.hello_world(Language::C).is_some());
        assert!(bundle.hello_world(Language::Fortran).is_some());
        assert!(bundle.total_bytes() > 100_000);
        let manifest = bundle.manifest();
        assert!(manifest["libraries"].as_array().unwrap().len() >= 3);
    }

    #[test]
    fn source_phase_rejects_non_mpi_binary() {
        let sites = standard_sites(23);
        let fir = &sites[FIR];
        let img = sim_compile(fir, None, &ProgramSpec::serial_hello_world(), 1)
            .unwrap()
            .image;
        assert!(matches!(
            run_source_phase(fir, &img, &PhaseConfig::default()),
            Err(FeamError::NotAnMpiBinary(_))
        ));
    }

    #[test]
    fn target_phase_basic_end_to_end() {
        let sites = standard_sites(23);
        let image = build_at(&sites, RANGER, 1); // openmpi-gnu at Ranger
        let india = &sites[INDIA];
        let outcome = run_target_phase(india, Some(&image), None, &PhaseConfig::default());
        assert_eq!(
            outcome.prediction.mode,
            crate::predict::PredictionMode::Basic
        );
        assert!(!outcome.prediction.verdicts.is_empty());
        assert!(outcome.cpu_seconds > 0.0);
        // Whatever the verdict, a best-effort plan names a stack (India has
        // Open MPI).
        assert!(outcome.evaluation.plan.stack_ident.is_some());
    }

    #[test]
    fn target_phase_extended_without_binary_uses_bundle_description() {
        let sites = standard_sites(23);
        let ranger = &sites[RANGER];
        let image = build_at(&sites, RANGER, 1);
        let bundle = run_source_phase(ranger, &image, &PhaseConfig::default()).unwrap();
        let india = &sites[INDIA];
        let outcome = run_target_phase(india, None, Some(&bundle), &PhaseConfig::default());
        assert_eq!(
            outcome.prediction.mode,
            crate::predict::PredictionMode::Extended
        );
        assert!(Arc::ptr_eq(&outcome.binary, &bundle.app));
    }

    #[test]
    fn target_phase_with_nothing_is_negative() {
        let sites = standard_sites(23);
        let outcome = run_target_phase(&sites[INDIA], None, None, &PhaseConfig::default());
        assert!(!outcome.prediction.ready());
    }

    #[test]
    fn traced_target_phase_emits_component_spans_in_order() {
        let sites = standard_sites(23);
        let image = build_at(&sites, RANGER, 1);
        let (recorder, sink) = feam_obs::Recorder::memory();
        let cfg = PhaseConfig {
            recorder,
            ..PhaseConfig::default()
        };
        let outcome = run_target_phase(&sites[INDIA], Some(&image), None, &cfg);

        let events = sink.events();
        let starts: Vec<&feam_obs::Event> = events
            .iter()
            .filter(|e| e.kind == feam_obs::EventKind::SpanStart)
            .collect();
        let start_of = |name: &str| {
            let matching: Vec<&&feam_obs::Event> =
                starts.iter().filter(|e| e.name == name).collect();
            assert_eq!(
                matching.len(),
                1,
                "exactly one {name} span, got {}",
                matching.len()
            );
            *matching[0]
        };

        // Exactly one span per pipeline component, each a direct child of
        // the phase span.
        let phase = start_of("target_phase");
        assert_eq!(phase.parent, None, "target_phase is the root span");
        let edc = start_of("edc");
        let bdc = start_of("bdc");
        let tec = start_of("tec");
        for child in [edc, bdc, tec] {
            assert_eq!(
                child.parent,
                Some(phase.span),
                "{} nests in target_phase",
                child.name
            );
        }
        // Components start in pipeline order: EDC, then BDC, then TEC.
        assert!(edc.ts_us <= bdc.ts_us && bdc.ts_us <= tec.ts_us);

        // Every span closed, with a duration.
        for s in &starts {
            let end = events
                .iter()
                .find(|e| e.kind == feam_obs::EventKind::SpanEnd && e.span == s.span)
                .unwrap_or_else(|| panic!("span {} never closed", s.name));
            assert!(end.dur_us.is_some(), "{} has a duration", s.name);
            assert!(end.ts_us >= s.ts_us);
        }

        // The snapshot's per-span totals agree with the span tree: each
        // name's count and summed duration match the span_end events.
        for (name, stat) in &outcome.telemetry.spans {
            let ends: Vec<u64> = events
                .iter()
                .filter(|e| e.kind == feam_obs::EventKind::SpanEnd && &e.name == name)
                .map(|e| e.dur_us.unwrap())
                .collect();
            assert_eq!(stat.count, ends.len() as u64, "span count for {name}");
            assert_eq!(
                stat.total_us,
                ends.iter().sum::<u64>(),
                "span total for {name}"
            );
        }
        // Children can't outlast their parent.
        let phase_total = outcome.telemetry.spans["target_phase"].total_us;
        for name in ["edc", "bdc", "tec"] {
            assert!(outcome.telemetry.spans[name].total_us <= phase_total);
        }
    }

    #[test]
    fn disabled_recorder_leaves_telemetry_empty() {
        let sites = standard_sites(23);
        let image = build_at(&sites, RANGER, 1);
        let outcome = run_target_phase(&sites[INDIA], Some(&image), None, &PhaseConfig::default());
        assert!(outcome.telemetry.is_empty(), "no recorder, no telemetry");
    }

    #[test]
    fn cached_target_phase_reuses_descriptions_and_matches_uncached() {
        let sites = standard_sites(23);
        let image = build_at(&sites, RANGER, 1);
        let india = &sites[INDIA];
        let uncached = run_target_phase(india, Some(&image), None, &PhaseConfig::default());

        let caches = Arc::new(crate::cache::PhaseCaches::new(0));
        let cfg = PhaseConfig {
            caches: Some(caches.clone()),
            ..PhaseConfig::default()
        };
        let first = run_target_phase(india, Some(&image), None, &cfg);
        let second = run_target_phase(india, Some(&image), None, &cfg);

        // Warm run hits both layers; descriptions now populate the caches.
        assert_eq!(caches.bdc.stats().misses, 1, "one cold BDC lookup");
        assert!(caches.bdc.stats().hits >= 1, "warm run must hit the BDC");
        assert_eq!(caches.edc.stats().misses, 1, "one cold EDC lookup");
        assert!(caches.edc.stats().hits >= 1, "warm run must hit the EDC");

        // Caching is an optimization, not a semantic change.
        for outcome in [&first, &second] {
            assert_eq!(outcome.prediction.ready(), uncached.prediction.ready());
            assert_eq!(
                outcome.prediction.verdicts.len(),
                uncached.prediction.verdicts.len()
            );
            assert_eq!(
                serde_json::to_string(&outcome.binary).unwrap(),
                serde_json::to_string(&uncached.binary).unwrap()
            );
        }
    }

    #[test]
    fn phase_runtimes_under_five_minutes() {
        // §VI.C: "both FEAM's source and target phases always took less
        // than five minutes to complete."
        let sites = standard_sites(23);
        let ranger = &sites[RANGER];
        let image = build_at(&sites, RANGER, 0);
        let t0 = std::time::Instant::now();
        let bundle = run_source_phase(ranger, &image, &PhaseConfig::default()).unwrap();
        let outcome = run_target_phase(
            &sites[FIR],
            Some(&image),
            Some(&bundle),
            &PhaseConfig::default(),
        );
        assert!(
            t0.elapsed().as_secs() < 300,
            "wall clock must stay far below 5 minutes"
        );
        assert!(
            outcome.cpu_seconds < 300.0,
            "simulated CPU budget {} must stay below 5 minutes",
            outcome.cpu_seconds
        );
    }
}
