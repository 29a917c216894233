//! Execution model: ground truth for "did the job actually run".
//!
//! Reproduces the paper's observed failure taxonomy (§VI.C):
//!
//! * **missing shared libraries** — more than half of the failures;
//!   produced mechanically by the loader model,
//! * **C library version requirements** — unresolved `GLIBC_*` references,
//! * **ABI incompatibilities** — unresolved marker symbols / version refs,
//! * **floating point exceptions** — a site × compiler-runtime property,
//! * **system errors** (failed MPI daemon spawning, communication
//!   timeouts) — seeded-random per (binary, site), persistent or
//!   transient; the paper retries five times "spaced in time".

use crate::loader::{closure_verdict, object_read, LoadError, ObjectMeta};
use crate::rng;
use crate::site::{InstalledStack, Session};
use crate::toolchain::CompilerFamily;
use serde::Serialize;
use std::sync::Arc;

/// Default number of launch attempts (§VI.C: "five execution attempts").
pub const DEFAULT_ATTEMPTS: u32 = 5;

/// Kinds of unpredictable system errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SystemErrorKind {
    /// `mpd`/`orted` daemon failed to spawn.
    DaemonSpawn,
    /// Communication timeout.
    Timeout,
}

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// Wrong ISA / word length / file format for this hardware.
    NotExecutable(String),
    /// Loader-level failure (missing library, unresolved version, missing
    /// symbol).
    Load(LoadError),
    /// The launcher's MPI implementation does not match the binary's.
    MpiLauncherMismatch {
        binary_impl: String,
        launcher_impl: String,
    },
    /// The selected stack is misconfigured and cannot launch anything.
    StackMisconfigured(String),
    /// Runtime floating-point exception (SIGFPE).
    FloatingPointException,
    /// Unpredictable site-level error.
    SystemError(SystemErrorKind),
}

impl FailureCause {
    /// Coarse class used by the evaluation's failure histogram.
    pub fn class(&self) -> &'static str {
        match self {
            FailureCause::NotExecutable(_) => "not-executable",
            FailureCause::Load(LoadError::MissingLibrary { .. }) => "missing-library",
            FailureCause::Load(LoadError::UnresolvedVersion { version, .. }) => {
                if version.starts_with("GLIBC_") {
                    "c-library-version"
                } else {
                    "abi-incompatibility"
                }
            }
            FailureCause::Load(LoadError::MissingSymbol { .. }) => "abi-incompatibility",
            FailureCause::Load(LoadError::NotLoadable(_)) => "not-executable",
            FailureCause::MpiLauncherMismatch { .. } => "mpi-mismatch",
            FailureCause::StackMisconfigured(_) => "stack-misconfigured",
            FailureCause::FloatingPointException => "floating-point-exception",
            FailureCause::SystemError(_) => "system-error",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::NotExecutable(msg) => write!(f, "cannot execute: {msg}"),
            FailureCause::Load(e) => write!(f, "{e}"),
            FailureCause::MpiLauncherMismatch {
                binary_impl,
                launcher_impl,
            } => {
                write!(
                    f,
                    "binary built for {binary_impl} but launched with {launcher_impl}"
                )
            }
            FailureCause::StackMisconfigured(s) => write!(f, "MPI stack {s} is not useable"),
            FailureCause::FloatingPointException => write!(f, "floating point exception (SIGFPE)"),
            FailureCause::SystemError(SystemErrorKind::DaemonSpawn) => {
                write!(f, "mpd daemon failed to spawn")
            }
            FailureCause::SystemError(SystemErrorKind::Timeout) => {
                write!(f, "communication timeout")
            }
        }
    }
}

/// Result of a (possibly retried) execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub success: bool,
    /// Attempts consumed (≥1).
    pub attempts: u32,
    /// First decisive failure, when unsuccessful.
    pub failure: Option<FailureCause>,
}

impl ExecOutcome {
    fn ok(attempts: u32) -> Self {
        ExecOutcome {
            success: true,
            attempts,
            failure: None,
        }
    }

    fn fail(attempts: u32, cause: FailureCause) -> Self {
        ExecOutcome {
            success: false,
            attempts,
            failure: Some(cause),
        }
    }
}

/// Extract (compiler family, full version string) from `.comment`
/// provenance.
pub fn compiler_version_from_comments<S: AsRef<str>>(
    comments: &[S],
) -> Option<(CompilerFamily, String)> {
    for c in comments {
        let c = c.as_ref();
        if let Some(rest) = c.strip_prefix("GCC: ") {
            let ver = rest
                .split_whitespace()
                .find(|w| w.chars().next().is_some_and(|ch| ch.is_ascii_digit()))?;
            return Some((CompilerFamily::Gnu, ver.to_string()));
        }
        if c.starts_with("Intel(R)") {
            let ver = c.split("Version ").nth(1)?.split_whitespace().next()?;
            return Some((CompilerFamily::Intel, ver.to_string()));
        }
        if c.starts_with("PGI") {
            let ver = c
                .split_whitespace()
                .find(|w| w.chars().next().is_some_and(|ch| ch.is_ascii_digit()))?;
            return Some((CompilerFamily::Pgi, ver.split('-').next()?.to_string()));
        }
    }
    None
}

/// Extract (compiler family, major version) from `.comment` provenance —
/// the execution model's way of knowing which runtime personality a binary
/// has.
pub fn compiler_from_comments<S: AsRef<str>>(comments: &[S]) -> Option<(CompilerFamily, u32)> {
    for c in comments {
        let c = c.as_ref();
        if let Some(rest) = c.strip_prefix("GCC: ") {
            let ver = rest
                .split_whitespace()
                .find(|w| w.chars().next().is_some_and(|ch| ch.is_ascii_digit()))?;
            let major: u32 = ver.split('.').next()?.parse().ok()?;
            return Some((CompilerFamily::Gnu, major));
        }
        if c.starts_with("Intel(R)") {
            let ver = c.split("Version ").nth(1)?.split_whitespace().next()?;
            let major: u32 = ver.split('.').next()?.parse().ok()?;
            return Some((CompilerFamily::Intel, major));
        }
        if c.starts_with("PGI") {
            let ver = c
                .split_whitespace()
                .find(|w| w.chars().next().is_some_and(|ch| ch.is_ascii_digit()))?;
            let major: u32 = ver.split(['.', '-']).next()?.parse().ok()?;
            return Some((CompilerFamily::Pgi, major));
        }
    }
    None
}

/// Stable identity of a binary for seeding (first 4 KiB + length).
pub fn binary_fingerprint(bytes: &[u8]) -> u64 {
    let head = &bytes[..bytes.len().min(4096)];
    rng::mix(rng::fnv1a(head) ^ (bytes.len() as u64))
}

/// Run a serial binary at `path` within the session. Exercises ISA check,
/// loader, and FPE triggers; no MPI launcher involved.
pub fn run_serial(sess: &mut Session<'_>, path: &str) -> ExecOutcome {
    sess.charge(0.5);
    match launch_once(sess, path, None, None) {
        Ok(()) => ExecOutcome::ok(1),
        Err(cause) => ExecOutcome::fail(1, cause),
    }
}

/// Run an MPI binary with `mpiexec` from `launcher`, retrying up to
/// `max_attempts` times (the paper's five spaced attempts).
///
/// Every attempt emits a `launch_attempt` trace event on the session's
/// recorder, and the final attempt count lands in the `launch.attempts`
/// histogram (the §VI.C retry statistic).
pub fn run_mpi(
    sess: &mut Session<'_>,
    path: &str,
    launcher: &InstalledStack,
    nprocs: u32,
    max_attempts: u32,
) -> ExecOutcome {
    let outcome = run_mpi_attempts(sess, path, launcher, nprocs, max_attempts);
    let rec = &sess.recorder;
    rec.count("launch.runs", 1);
    rec.observe("launch.attempts", outcome.attempts as f64);
    if !outcome.success {
        rec.count("launch.failures", 1);
    }
    outcome
}

fn run_mpi_attempts(
    sess: &mut Session<'_>,
    path: &str,
    launcher: &InstalledStack,
    nprocs: u32,
    max_attempts: u32,
) -> ExecOutcome {
    let max_attempts = max_attempts.max(1);
    let site_seed = sess.site.config.seed;
    // Parsed once here; the fingerprint seeds the system-error draws and
    // the metadata goes to the launch.
    let image = sess.read_bytes(path);
    let described = image.as_ref().map(|b| object_read(sess, path, b));
    let fp = match (&image, &described) {
        (Some(_), Some(Ok(meta))) => meta.fingerprint,
        (Some(bytes), _) => binary_fingerprint(bytes),
        (None, _) => 0,
    };
    let key = format!("{fp:x}@{}", launcher.stack.ident());
    let attempt_event = |sess: &Session<'_>, attempt: u32, outcome: &str| {
        sess.recorder.event(
            "launch_attempt",
            &[
                ("attempt", attempt.into()),
                ("stack", launcher.stack.ident().as_str().into()),
                ("outcome", outcome.into()),
            ],
        );
    };

    // Persistent system error: this (binary, site, stack) pairing is sick
    // for the whole test window.
    let persistent_syserr = rng::chance(
        site_seed,
        &[&key, "syserr-persistent"],
        sess.site.config.system_error_rate,
    );

    for attempt in 1..=max_attempts {
        sess.charge(1.0 + 0.05 * nprocs as f64);
        if !launcher.functional {
            attempt_event(sess, attempt, "stack-misconfigured");
            return ExecOutcome::fail(
                attempt,
                FailureCause::StackMisconfigured(launcher.stack.ident()),
            );
        }
        // Injected daemon-spawn storms (chaos testing): persistent faults
        // behave like the site's own persistent system errors, transient
        // ones like its per-attempt hiccups.
        let injected = sess.roll_fault(crate::faults::Chokepoint::DaemonSpawn, &key, attempt);
        if persistent_syserr || injected == Some(crate::faults::FaultKind::Persistent) {
            if attempt == max_attempts {
                let kind = if injected == Some(crate::faults::FaultKind::Persistent)
                    || rng::chance(site_seed, &[&key, "syserr-kind"], 0.5)
                {
                    SystemErrorKind::DaemonSpawn
                } else {
                    SystemErrorKind::Timeout
                };
                attempt_event(sess, attempt, "system-error");
                return ExecOutcome::fail(attempt, FailureCause::SystemError(kind));
            }
            attempt_event(sess, attempt, "retry");
            continue;
        }
        // Transient launch failure; spaced retries absorb it.
        let transient = injected == Some(crate::faults::FaultKind::Transient)
            || rng::chance(
                site_seed,
                &[&key, "syserr-transient", &attempt.to_string()],
                sess.site.config.transient_error_rate,
            );
        if transient {
            if attempt == max_attempts {
                attempt_event(sess, attempt, "system-error");
                return ExecOutcome::fail(
                    attempt,
                    FailureCause::SystemError(SystemErrorKind::Timeout),
                );
            }
            attempt_event(sess, attempt, "retry");
            continue;
        }
        return match launch_once(sess, path, Some(launcher), described.as_ref()) {
            Ok(()) => {
                attempt_event(sess, attempt, "ok");
                ExecOutcome::ok(attempt)
            }
            Err(cause) => {
                attempt_event(sess, attempt, cause.class());
                ExecOutcome::fail(attempt, cause)
            }
        };
    }
    unreachable!("loop always returns")
}

/// One launch attempt: deterministic checks only. `described` is the
/// caller's [`object_read`] of the same image, when it already made one.
fn launch_once(
    sess: &mut Session<'_>,
    path: &str,
    launcher: Option<&InstalledStack>,
    described: Option<&feam_elf::Result<Arc<ObjectMeta>>>,
) -> Result<(), FailureCause> {
    // The binary itself must be readable (the launch's own VFS read) and a
    // valid ELF for this hardware.
    let bytes = sess
        .read_bytes(path)
        .ok_or_else(|| FailureCause::NotExecutable(format!("{path}: no such file")))?;
    let meta = match described {
        Some(d) => d.clone(),
        None => object_read(sess, path, &bytes),
    }
    .map_err(|e| FailureCause::NotExecutable(e.to_string()))?;
    if !sess.site.config.arch.executes(meta.machine, meta.class) {
        return Err(FailureCause::NotExecutable(format!(
            "{} {}-bit binary on {} hardware",
            meta.machine.name(),
            meta.class.bits(),
            sess.site.config.arch.uname_p(),
        )));
    }

    // Dynamic loading.
    closure_verdict(sess, path, &meta).map_err(FailureCause::Load)?;

    // MPI launcher / binary implementation agreement.
    if let Some(launcher) = launcher {
        if let Some(bin_impl) = crate::compile::binary_mpi_impl(&meta) {
            if bin_impl != launcher.stack.mpi {
                return Err(FailureCause::MpiLauncherMismatch {
                    binary_impl: bin_impl.name().to_string(),
                    launcher_impl: launcher.stack.mpi.name().to_string(),
                });
            }
        }
    }

    // Floating-point environment quirks: a property of (site, exact
    // compiler runtime version) pairs, visible only at run time — and only
    // detectable by running a program built with that runtime (which is
    // what the transported hello worlds do).
    if let Some((family, version)) = compiler_version_from_comments(&meta.comments) {
        if sess
            .site
            .config
            .fpe_triggers
            .iter()
            .any(|(f, v)| *f == family && *v == version)
        {
            return Err(FailureCause::FloatingPointException);
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, ProgramSpec};
    use crate::mpi::{MpiImpl, MpiStack, Network};
    use crate::site::{OsInfo, Site, SiteConfig};
    use crate::toolchain::{Compiler, Language};
    use feam_elf::HostArch;
    use std::sync::Arc;

    fn site_with(seed: u64, f: impl FnOnce(&mut SiteConfig)) -> Site {
        let mut cfg = SiteConfig::new(
            "exec-test",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            seed,
        );
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
        cfg.system_error_rate = 0.0;
        cfg.ldd_flaky_rate = 0.0;
        f(&mut cfg);
        Site::build(cfg)
    }

    fn compile_here(site: &Site, prog: &ProgramSpec) -> Arc<Vec<u8>> {
        let ist = site.stacks[0].clone();
        compile(site, Some(&ist), prog, 42).unwrap().image
    }

    #[test]
    fn binary_runs_where_it_was_built() {
        let s = site_with(1, |_| {});
        let img = compile_here(&s, &ProgramSpec::new("ep.A.2", Language::Fortran));
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s);
        sess.load_stack(&ist);
        sess.stage_file("/home/user/ep.A.2", img);
        let out = run_mpi(&mut sess, "/home/user/ep.A.2", &ist, 4, DEFAULT_ATTEMPTS);
        assert!(out.success, "failure: {:?}", out.failure);
    }

    #[test]
    fn missing_mpi_stack_selection_fails_with_missing_library() {
        let s = site_with(2, |_| {});
        let img = compile_here(&s, &ProgramSpec::new("cg.A.2", Language::Fortran));
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s); // stack NOT loaded → lib dir absent
        sess.stage_file("/home/user/cg.A.2", img);
        let out = run_mpi(&mut sess, "/home/user/cg.A.2", &ist, 4, DEFAULT_ATTEMPTS);
        assert!(!out.success);
        assert_eq!(out.failure.unwrap().class(), "missing-library");
    }

    #[test]
    fn misconfigured_stack_fails_everything() {
        let s = site_with(3, |cfg| {
            cfg.stacks[0].1 = false;
        });
        let img = compile_here(&s, &ProgramSpec::mpi_hello_world(Language::C));
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s);
        sess.load_stack(&ist);
        sess.stage_file("/home/user/hello", img);
        let out = run_mpi(&mut sess, "/home/user/hello", &ist, 2, DEFAULT_ATTEMPTS);
        assert!(!out.success);
        assert_eq!(out.failure.unwrap().class(), "stack-misconfigured");
    }

    #[test]
    fn fpe_trigger_hits_matching_runtime_only() {
        let s = site_with(4, |cfg| {
            cfg.fpe_triggers = vec![(CompilerFamily::Gnu, "4.1.2".to_string())];
        });
        let img = compile_here(&s, &ProgramSpec::new("sp.A.4", Language::Fortran));
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s);
        sess.load_stack(&ist);
        sess.stage_file("/home/user/sp.A.4", img);
        let out = run_mpi(&mut sess, "/home/user/sp.A.4", &ist, 4, DEFAULT_ATTEMPTS);
        assert!(!out.success);
        assert_eq!(out.failure.unwrap().class(), "floating-point-exception");
    }

    #[test]
    fn persistent_system_error_exhausts_retries() {
        let s = site_with(5, |cfg| {
            cfg.system_error_rate = 1.0;
        });
        let img = compile_here(&s, &ProgramSpec::new("is.A.2", Language::C));
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s);
        sess.load_stack(&ist);
        sess.stage_file("/home/user/is.A.2", img);
        let out = run_mpi(&mut sess, "/home/user/is.A.2", &ist, 4, DEFAULT_ATTEMPTS);
        assert!(!out.success);
        assert_eq!(out.attempts, DEFAULT_ATTEMPTS);
        assert_eq!(out.failure.unwrap().class(), "system-error");
    }

    #[test]
    fn wrong_isa_rejected() {
        let s = site_with(6, |_| {});
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::Ppc64, feam_elf::Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let img = Arc::new(spec.build().unwrap());
        let ist = s.stacks[0].clone();
        let mut sess = Session::new(&s);
        sess.load_stack(&ist);
        sess.stage_file("/home/user/ppc.bin", img);
        let out = run_mpi(&mut sess, "/home/user/ppc.bin", &ist, 4, DEFAULT_ATTEMPTS);
        assert_eq!(out.failure.unwrap().class(), "not-executable");
    }

    #[test]
    fn compiler_from_comments_parses_all_families() {
        assert_eq!(
            compiler_from_comments(&["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"]),
            Some((CompilerFamily::Gnu, 4))
        );
        assert_eq!(
            compiler_from_comments(&[
                "Intel(R) C Intel(R) 64 Compiler Professional, Version 11.1 Build 2"
            ]),
            Some((CompilerFamily::Intel, 11))
        );
        assert_eq!(
            compiler_from_comments(&["PGI Compilers and Tools pgcc 10.9-0 64-bit target"]),
            Some((CompilerFamily::Pgi, 10))
        );
        assert_eq!(compiler_from_comments(&["something else"]), None);
    }

    #[test]
    fn serial_run_of_self_built_binary_succeeds() {
        let s = site_with(7, |_| {});
        let img = compile(&s, None, &ProgramSpec::serial_hello_world(), 1)
            .unwrap()
            .image;
        let mut sess = Session::new(&s);
        sess.stage_file("/home/user/hello", img);
        let out = run_serial(&mut sess, "/home/user/hello");
        assert!(out.success, "failure: {:?}", out.failure);
    }
}
