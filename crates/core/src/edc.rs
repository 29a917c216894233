//! The Environment Discovery Component (§V.B).
//!
//! Gathers the Figure 4 information about a computing site:
//!
//! * ISA format (`uname -p`),
//! * operating system (`/proc/version`, `/etc/*release`),
//! * C library version (executing the libc binary),
//! * available / currently-loaded MPI stacks (Environment Modules or
//!   SoftEnv when present, else filesystem search with path-name
//!   inference and wrapper probing),
//! * missing shared libraries for a given binary (`ldd`, with search
//!   fallbacks).

use crate::bdc::{is_c_library, locate_library};
use crate::retry::{note_retry, RetryPolicy};
use feam_elf::{HostArch, VersionName};
use feam_sim::faults::Chokepoint;
use feam_sim::mpi::MpiImpl;
use feam_sim::site::{InstalledStack, Session, Site};
use feam_sim::tools::{self, LddResult};
use serde::Serialize;
use std::sync::Arc;

/// How a stack was discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DiscoveryMethod {
    EnvironmentModules,
    SoftEnv,
    /// Filesystem search + path-name inference + wrapper probing.
    PathSearch,
}

/// One MPI stack discovered at a site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DiscoveredStack {
    pub mpi: MpiImpl,
    pub mpi_version: String,
    /// Compiler family tag (`gnu`, `intel`, `pgi`).
    pub compiler: String,
    pub compiler_version: String,
    /// Install prefix.
    pub prefix: String,
    pub via: DiscoveryMethod,
    /// Module / softenv key when applicable.
    pub key: Option<String>,
}

impl DiscoveredStack {
    /// Identifier like `openmpi-1.4.3-intel-11.1`.
    pub fn ident(&self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.mpi.tag(),
            self.mpi_version,
            self.compiler,
            self.compiler_version
        )
    }
}

/// The Figure 4 description of a computing environment.
#[derive(Debug, Clone, Serialize)]
pub struct EnvironmentDescription {
    /// `uname -p` output.
    pub isa: String,
    /// Parsed host architecture, when recognized.
    pub arch: Option<HostArch>,
    /// OS description from `/proc/version` + `/etc/*release`.
    pub os: String,
    /// Discovered C library version.
    pub c_library: Option<VersionName>,
    /// Which user-environment management tool was found.
    pub env_mgmt: Option<DiscoveryMethod>,
    /// All MPI stacks discovered at the site.
    pub available_stacks: Vec<DiscoveredStack>,
    /// The stack currently loaded in the shell, if any.
    pub loaded_stack: Option<String>,
    /// Observations that failed even after retries (e.g. `"os"`,
    /// `"c_library"`): the graceful-degradation breadcrumbs that turn
    /// into `Unknown` determinant verdicts downstream.
    pub unobserved: Vec<String>,
}

impl EnvironmentDescription {
    /// Discovered stacks of one MPI implementation.
    pub fn stacks_of(&self, mpi: MpiImpl) -> Vec<&DiscoveredStack> {
        self.available_stacks
            .iter()
            .filter(|s| s.mpi == mpi)
            .collect()
    }
}

/// Parse a `uname -p` string into a [`HostArch`].
pub fn parse_arch(uname: &str) -> Option<HostArch> {
    match uname {
        "x86_64" => Some(HostArch::X86_64),
        "i686" | "i586" | "i386" => Some(HostArch::X86),
        "ppc64" => Some(HostArch::Ppc64),
        "ppc" => Some(HostArch::Ppc),
        "ia64" => Some(HostArch::Ia64),
        "aarch64" => Some(HostArch::Aarch64),
        _ => None,
    }
}

/// Parse the glibc banner ("GNU C Library … release version 2.11.1 …")
/// into a version.
pub fn parse_libc_banner(banner: &str) -> Option<VersionName> {
    let idx = banner.find("release version ")?;
    let tail = &banner[idx + "release version ".len()..];
    let ver: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    VersionName::parse(&format!("GLIBC_{}", ver.trim_end_matches('.')))
}

/// Parse a stack identifier like `openmpi-1.4.3-intel-11.1` (module names,
/// softenv keys, and install-prefix leaves all use this shape — §V.B's
/// path-name inference).
pub fn parse_stack_ident(ident: &str) -> Option<(MpiImpl, String, String, String)> {
    let parts: Vec<&str> = ident.split('-').collect();
    if parts.len() < 4 {
        return None;
    }
    let mpi = match parts[0] {
        "openmpi" => MpiImpl::OpenMpi,
        "mpich2" => MpiImpl::Mpich2,
        "mvapich2" => MpiImpl::Mvapich2,
        _ => return None,
    };
    // Compiler tag is the first part that names a family; version pieces
    // may themselves contain '-'-free dotted text.
    let comp_idx = parts
        .iter()
        .position(|p| matches!(*p, "gnu" | "intel" | "pgi"))?;
    if comp_idx < 2 || comp_idx + 1 >= parts.len() {
        return None;
    }
    let mpi_version = parts[1..comp_idx].join("-");
    let compiler = parts[comp_idx].to_string();
    let compiler_version = parts[comp_idx + 1..].join("-");
    Some((mpi, mpi_version, compiler, compiler_version))
}

/// Run one observation with bounded retries against injected faults.
///
/// Retries only make sense when the session's fault plan can actually
/// produce transient faults at this chokepoint — otherwise a `None` means
/// "genuinely absent" and re-asking is pure waste, so a single attempt is
/// made. Consumed retries charge backoff to the simulated clock and emit
/// `retry_attempt` events.
fn observe<T>(
    sess: &mut Session<'_>,
    retry: &RetryPolicy,
    chokepoint: Chokepoint,
    what: &str,
    f: impl Fn(&Session<'_>, u32) -> Option<T>,
) -> Option<T> {
    let max = if sess.faults.rate(chokepoint).transient > 0.0 {
        retry.max_attempts.max(1)
    } else {
        1
    };
    for attempt in 1..=max {
        if let Some(v) = f(sess, attempt) {
            return Some(v);
        }
        if attempt < max {
            let delay = retry.jittered_delay_before(attempt + 1, what);
            note_retry(sess, what, attempt + 1, delay);
        }
    }
    None
}

/// Discover the MPI stacks at a site. A corrupt module/softenv database
/// (injected or real) degrades gracefully: discovery falls through to the
/// next method, ending with raw filesystem search.
fn discover_stacks(
    sess: &mut Session<'_>,
    retry: &RetryPolicy,
) -> (Option<DiscoveryMethod>, Vec<DiscoveredStack>) {
    let site = sess.site;
    // Environment Modules first.
    if let Some(modules) = observe(sess, retry, Chokepoint::ModuleDb, "module_avail", |s, a| {
        tools::module_avail(s, a)
    }) {
        let stacks = modules
            .iter()
            .filter_map(|m| {
                let (mpi, mv, comp, cv) = parse_stack_ident(m)?;
                let prefix = format!("/opt/{m}");
                // Confirm with a wrapper probe when possible.
                let confirmed = tools::wrapper_info(site, &format!("{prefix}/bin/mpicc"));
                confirmed.as_ref()?;
                Some(DiscoveredStack {
                    mpi,
                    mpi_version: mv,
                    compiler: comp,
                    compiler_version: cv,
                    prefix,
                    via: DiscoveryMethod::EnvironmentModules,
                    key: Some(m.clone()),
                })
            })
            .collect();
        return (Some(DiscoveryMethod::EnvironmentModules), stacks);
    }
    // SoftEnv next.
    if let Some(keys) = observe(sess, retry, Chokepoint::ModuleDb, "softenv_keys", |s, a| {
        tools::softenv_keys(s, a)
    }) {
        let stacks = keys
            .iter()
            .filter_map(|k| {
                let (mpi, mv, comp, cv) = parse_stack_ident(k)?;
                let prefix = format!("/opt/{k}");
                tools::wrapper_info(site, &format!("{prefix}/bin/mpicc"))?;
                Some(DiscoveredStack {
                    mpi,
                    mpi_version: mv,
                    compiler: comp,
                    compiler_version: cv,
                    prefix,
                    via: DiscoveryMethod::SoftEnv,
                    key: Some(k.clone()),
                })
            })
            .collect();
        return (Some(DiscoveryMethod::SoftEnv), stacks);
    }
    // Fall back to filesystem search: look for MPI libraries under common
    // prefixes, infer the stack from the path name, confirm via wrappers.
    let mut found = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let candidates = {
        let mut v = Vec::new();
        if let Some(hits) = tools::locate(site, "libmpi") {
            v.extend(hits);
        } else {
            v.extend(tools::find_name(site, &["/opt"], "libmpi.so.0"));
            v.extend(tools::find_name(site, &["/opt"], "libmpich.so.1.2"));
        }
        v
    };
    for path in candidates {
        // e.g. /opt/openmpi-1.4.3-intel-11.1/lib/libmpi.so.0
        let Some(rest) = path.strip_prefix("/opt/") else {
            continue;
        };
        let Some(leaf) = rest.split('/').next() else {
            continue;
        };
        if !seen.insert(leaf.to_string()) {
            continue;
        }
        let Some((mpi, mv, comp, cv)) = parse_stack_ident(leaf) else {
            continue;
        };
        let prefix = format!("/opt/{leaf}");
        if tools::wrapper_info(site, &format!("{prefix}/bin/mpicc")).is_none() {
            continue;
        }
        found.push(DiscoveredStack {
            mpi,
            mpi_version: mv,
            compiler: comp,
            compiler_version: cv,
            prefix,
            via: DiscoveryMethod::PathSearch,
            key: None,
        });
    }
    found.sort_by(|a, b| a.prefix.cmp(&b.prefix));
    (None, found)
}

/// Run the EDC against a session (the environment as the current shell
/// sees it), with the default retry policy for faulted observations.
pub fn discover(sess: &mut Session<'_>) -> EnvironmentDescription {
    discover_with_retry(sess, &RetryPolicy::default())
}

/// [`discover`] with an explicit retry policy. Observations that fail even
/// after retries are listed in [`EnvironmentDescription::unobserved`]
/// instead of aborting discovery — the description simply has holes.
pub fn discover_with_retry(sess: &mut Session<'_>, retry: &RetryPolicy) -> EnvironmentDescription {
    let site = sess.site;
    sess.charge(1.0);
    let mut unobserved = Vec::new();
    let isa = tools::uname_p(site).to_string();
    let arch = parse_arch(&isa);
    let pv = observe(
        sess,
        retry,
        Chokepoint::DescriptionFile,
        "proc_version",
        tools::proc_version,
    );
    let rel = observe(
        sess,
        retry,
        Chokepoint::DescriptionFile,
        "etc_release",
        tools::etc_release,
    );
    if pv.is_none() && rel.is_none() {
        unobserved.push("os".to_string());
    }
    let os = {
        let pv = pv.unwrap_or_default();
        let rel = rel.unwrap_or_default();
        let rel_line = rel.lines().next().unwrap_or("");
        if rel_line.is_empty() {
            pv
        } else {
            rel_line.to_string()
        }
    };
    let banner = observe(
        sess,
        retry,
        Chokepoint::DescriptionFile,
        "libc_banner",
        tools::run_libc_banner,
    );
    if banner.is_none() {
        unobserved.push("c_library".to_string());
    }
    let c_library = banner.and_then(|b| parse_libc_banner(&b));
    let (env_mgmt, available_stacks) = discover_stacks(sess, retry);
    let loaded_stack = tools::module_list(sess)
        .and_then(|l| l.into_iter().next())
        .or_else(|| {
            sess.env
                .get("LOADEDMODULES")
                .cloned()
                .filter(|s| !s.is_empty())
        });
    EnvironmentDescription {
        isa,
        arch,
        os,
        c_library,
        env_mgmt: env_mgmt.or_else(|| available_stacks.first().map(|s| s.via)),
        available_stacks,
        loaded_stack,
        unobserved,
    }
}

/// Find the site's installed stack matching a discovered one (the bridge
/// from discovery output to a loadable environment: in the field this is
/// `module load <key>`; in the simulator it is `Session::load_stack`).
pub fn find_installed<'s>(site: &'s Site, d: &DiscoveredStack) -> Option<&'s InstalledStack> {
    site.stacks.iter().find(|ist| ist.prefix == d.prefix)
}

/// Survey the shared libraries a binary needs under the session's current
/// environment (§V.C's fourth determinant). Returns the sonames neither the
/// loader nor FEAM's search can find, and the directories outside the
/// loader's view where search found a needed library (FEAM adds these to
/// the generated `LD_LIBRARY_PATH`).
///
/// `binary` is the migrated binary and the path to stage it at, when it is
/// present: `ldd` then lists what the loader cannot resolve, transitive
/// dependencies included. Without an `ldd` answer the survey works from
/// `needed`, the BDC's list. Each soname the loader cannot see is searched
/// for at most once; the C library is never searched for nor missing.
pub fn survey_libraries<S: AsRef<str>>(
    sess: &mut Session<'_>,
    needed: &[S],
    binary: Option<(&str, &Arc<Vec<u8>>)>,
) -> (Vec<String>, Vec<String>) {
    let ldd = binary.map(|(path, image)| {
        sess.stage_file(path, image.clone());
        sess.charge(0.3);
        tools::ldd(sess, path)
    });
    let dirs = loader_dirs(sess);
    // The needed sonames the loader cannot see, with where search found each.
    let mut unseen: Vec<(&str, Option<String>)> = Vec::new();
    for so in needed.iter().map(AsRef::as_ref) {
        let seen = is_c_library(so) || lib_visible(sess, &dirs, so);
        if !seen && !unseen.iter().any(|(u, _)| *u == so) {
            unseen.push((so, locate_library(sess, so)));
        }
    }
    let mut extra_dirs: Vec<String> = Vec::new();
    for path in unseen.iter().filter_map(|(_, hit)| hit.as_deref()) {
        let dir = feam_sim::vfs::dirname(path);
        if !extra_dirs.iter().any(|d| d == dir) && !dirs.iter().any(|d| d == dir) {
            extra_dirs.push(dir.to_string());
        }
    }
    let unfound = |so: &str| match unseen.iter().find(|(u, _)| *u == so) {
        Some((_, hit)) => hit.is_none(),
        None => !is_c_library(so) && locate_library(sess, so).is_none(),
    };
    let missing = match ldd {
        // What ldd could not resolve through the loader's paths, FEAM also
        // searches for in common locations before declaring it missing (a
        // found-but-unconfigured library is handled by emitting
        // LD_LIBRARY_PATH configuration, not copies).
        Some(LddResult::Resolved(listing)) => listing
            .iter()
            .filter(|(so, loc)| loc.is_none() && unfound(so))
            .map(|(so, _)| so.clone())
            .collect(),
        Some(LddResult::NotRecognized | LddResult::NotPresent) | None => unseen
            .iter()
            .filter(|(_, hit)| hit.is_none())
            .map(|(so, _)| so.to_string())
            .collect(),
    };
    (missing, extra_dirs)
}

/// The survey's rule for one soname: present when it is the C library, the
/// loader can see it, or FEAM's search can locate it.
pub fn library_present(sess: &Session<'_>, soname: &str) -> bool {
    is_c_library(soname)
        || lib_visible(sess, &loader_dirs(sess), soname)
        || locate_library(sess, soname).is_some()
}

/// The directories the loader searches in this session, in order: the
/// current `LD_LIBRARY_PATH`, then the site's default library directories.
fn loader_dirs(sess: &Session<'_>) -> Vec<String> {
    let mut dirs = sess.ld_library_path();
    dirs.extend(sess.site.default_lib_dirs().iter().map(|d| d.to_string()));
    dirs
}

/// The loader-visibility rule: `soname` is visible when `<dir>/<soname>`
/// exists for some `dir` in `dirs` (the session's [`loader_dirs`]).
fn lib_visible(sess: &Session<'_>, dirs: &[String], soname: &str) -> bool {
    dirs.iter()
        .any(|d| feam_sim::loader::dir_has(sess, d, soname))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_workloads::sites::{standard_sites, BLACKLIGHT, INDIA, RANGER};

    #[test]
    fn parse_arch_recognizes_testbed() {
        assert_eq!(parse_arch("x86_64"), Some(HostArch::X86_64));
        assert_eq!(parse_arch("ia64"), Some(HostArch::Ia64));
        assert_eq!(parse_arch("s390x"), None);
    }

    #[test]
    fn parse_libc_banner_versions() {
        let b = feam_sim::libc::libc_banner("2.11.1", "SUSE");
        assert_eq!(parse_libc_banner(&b).unwrap().render(), "GLIBC_2.11.1");
        assert!(parse_libc_banner("no version here").is_none());
    }

    #[test]
    fn parse_stack_ident_variants() {
        let (m, mv, c, cv) = parse_stack_ident("openmpi-1.4.3-intel-11.1").unwrap();
        assert_eq!(m, MpiImpl::OpenMpi);
        assert_eq!(mv, "1.4.3");
        assert_eq!(c, "intel");
        assert_eq!(cv, "11.1");
        let (m, mv, ..) = parse_stack_ident("mvapich2-1.7rc1-gnu-4.4.5").unwrap();
        assert_eq!(m, MpiImpl::Mvapich2);
        assert_eq!(mv, "1.7rc1");
        assert!(parse_stack_ident("gcc-4.1.2").is_none());
        assert!(parse_stack_ident("openmpi-1.4").is_none());
    }

    #[test]
    fn discovery_via_modules_finds_all_stacks() {
        let sites = standard_sites(9);
        let ranger = &sites[RANGER];
        let mut sess = Session::new(ranger);
        let env = discover(&mut sess);
        assert_eq!(env.env_mgmt, Some(DiscoveryMethod::EnvironmentModules));
        assert_eq!(env.available_stacks.len(), 6, "Ranger advertises 6 stacks");
        assert_eq!(env.stacks_of(MpiImpl::OpenMpi).len(), 3);
        assert_eq!(env.stacks_of(MpiImpl::Mvapich2).len(), 3);
        assert_eq!(env.isa, "x86_64");
        assert_eq!(env.c_library.as_ref().unwrap().render(), "GLIBC_2.3.4");
        assert!(env.os.contains("CentOS"));
    }

    #[test]
    fn discovery_via_softenv_on_india() {
        let sites = standard_sites(9);
        let india = &sites[INDIA];
        let mut sess = Session::new(india);
        let env = discover(&mut sess);
        assert_eq!(env.env_mgmt, Some(DiscoveryMethod::SoftEnv));
        // All six stacks advertised, including the misconfigured one.
        assert_eq!(env.available_stacks.len(), 6);
    }

    #[test]
    fn discovered_stack_maps_to_installed() {
        let sites = standard_sites(9);
        let bl = &sites[BLACKLIGHT];
        let mut sess = Session::new(bl);
        let env = discover(&mut sess);
        for d in &env.available_stacks {
            let ist = find_installed(bl, d).expect("discovered stack must exist");
            assert_eq!(ist.stack.mpi, d.mpi);
        }
    }

    #[test]
    fn loaded_stack_visible_after_module_load() {
        let sites = standard_sites(9);
        let ranger = &sites[RANGER];
        let mut sess = Session::new(ranger);
        let ist = ranger.stacks[0].clone();
        sess.load_stack(&ist);
        let env = discover(&mut sess);
        assert_eq!(
            env.loaded_stack.as_deref(),
            Some(ist.stack.ident().as_str())
        );
    }

    #[test]
    fn missing_libraries_detected_for_foreign_binary() {
        let sites = standard_sites(9);
        let ranger = &sites[RANGER];
        // A binary needing a library no site has.
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = vec!["libfancy.so.9".into(), "libc.so.6".into()];
        let img = Arc::new(spec.build().unwrap());
        let mut sess = Session::new(ranger);
        let binary = Some(("/home/user/app", &img));
        let (missing, _) = survey_libraries(&mut sess, &spec.needed, binary);
        assert_eq!(missing, vec!["libfancy.so.9".to_string()]);
    }

    #[test]
    fn extra_lib_dirs_found_for_unloaded_stack_libs() {
        let sites = standard_sites(9);
        let ranger = &sites[RANGER];
        let mut sess = Session::new(ranger); // no module loaded
        let needed = vec!["libmpi.so.0".to_string()];
        let (_, dirs) = survey_libraries(&mut sess, &needed, None);
        assert!(
            dirs.iter().any(|d| d.contains("openmpi")),
            "search must surface the stack lib dir, got {dirs:?}"
        );
    }
}
