//! Emulations of the Unix utilities FEAM composes (§V: "Our methods are
//! implemented using various standard Unix-like operating system
//! utilities").
//!
//! Each emulation reads only what the corresponding real tool could read —
//! the site's virtual filesystem and the session environment — and each can
//! be absent or unreliable, so FEAM's fallback chains are genuinely
//! exercised (`ldd` "cannot be relied on to always provide this
//! information", `locate` may be missing, module systems vary).

use crate::loader::{ldd_map_from, object_read};
use crate::rng;
use crate::site::{EnvMgmt, Session, Site};

/// `uname -p` output.
pub fn uname_p(site: &Site) -> &'static str {
    site.config.arch.uname_p()
}

/// `cat /proc/version`. Observation attempt `attempt` — injected
/// description-file faults are re-rolled per attempt when transient.
pub fn proc_version(sess: &Session<'_>, attempt: u32) -> Option<String> {
    if sess
        .roll_fault(
            crate::faults::Chokepoint::DescriptionFile,
            "/proc/version",
            attempt,
        )
        .is_some()
    {
        return None;
    }
    sess.site
        .vfs()
        .read_text("/proc/version")
        .ok()
        .map(str::to_string)
}

/// Contents of the distribution's `/etc/*release` file.
pub fn etc_release(sess: &Session<'_>, attempt: u32) -> Option<String> {
    if sess
        .roll_fault(
            crate::faults::Chokepoint::DescriptionFile,
            "/etc/*release",
            attempt,
        )
        .is_some()
    {
        return None;
    }
    for path in [
        "/etc/redhat-release",
        "/etc/SuSE-release",
        "/etc/os-release",
    ] {
        if let Ok(text) = sess.site.vfs().read_text(path) {
            return Some(text.to_string());
        }
    }
    None
}

/// Result of running `ldd -v <binary>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LddResult {
    /// Tool not installed at this site.
    NotPresent,
    /// `ldd` printed "not a dynamic executable" — the unreliability the
    /// paper warns about.
    NotRecognized,
    /// Dependency list: (soname, resolved path or None for "not found").
    Resolved(Vec<(String, Option<String>)>),
}

/// Emulated `ldd -v`: per-binary flakiness is deterministic in the site
/// seed and the fingerprint of the bytes `ldd` read.
pub fn ldd(sess: &Session<'_>, path: &str) -> LddResult {
    if !sess.site.config.ldd_present {
        return LddResult::NotPresent;
    }
    let Some(bytes) = sess.read_bytes(path) else {
        return LddResult::NotRecognized;
    };
    // `root` describes exactly these bytes (staged or installed), so its
    // fingerprint is the one of the image read.
    let Ok(root) = object_read(sess, path, &bytes) else {
        return LddResult::NotRecognized;
    };
    let flaky_rate = sess.site.config.ldd_flaky_rate;
    if flaky_rate > 0.0
        && rng::chance(
            sess.site.config.seed,
            &[&format!("{:x}", root.fingerprint), "ldd-flaky"],
            flaky_rate,
        )
    {
        return LddResult::NotRecognized;
    }
    LddResult::Resolved(ldd_map_from(sess, root))
}

/// Emulated `locate <pattern>` (basename substring match); `None` when the
/// tool or its database is absent.
pub fn locate(site: &Site, pattern: &str) -> Option<Vec<String>> {
    site.config
        .locate_present
        .then(|| site.vfs().locate(pattern))
}

/// `locate <name>` narrowed to exact basename matches: the same paths, in
/// the same order, as filtering [`locate`]'s substring hits, read from the
/// name index. `None` when the tool or its database is absent.
pub fn locate_exact<'s>(site: &'s Site, name: &str) -> Option<&'s [String]> {
    site.config
        .locate_present
        .then(|| site.vfs().paths_named(name))
}

/// Emulated `find <roots...> -name <name>`.
pub fn find_name(site: &Site, roots: &[&str], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for root in roots {
        out.extend(site.vfs().find_by_name(root, name));
    }
    out.sort();
    out.dedup();
    out
}

/// Emulated `module avail` → module names, or `None` when Environment
/// Modules is not installed or its database read faults.
pub fn module_avail(sess: &Session<'_>, attempt: u32) -> Option<Vec<String>> {
    let site = sess.site;
    if site.config.env_mgmt != EnvMgmt::Modules {
        return None;
    }
    if sess
        .roll_fault(crate::faults::Chokepoint::ModuleDb, "modulefiles", attempt)
        .is_some()
    {
        return None;
    }
    let mut names = Vec::new();
    if let Ok(groups) = site.vfs().list_dir("/usr/share/Modules/modulefiles") {
        for g in groups {
            if let Ok(mods) = site
                .vfs()
                .list_dir(&format!("/usr/share/Modules/modulefiles/{g}"))
            {
                names.extend(mods);
            }
        }
    }
    names.sort();
    Some(names)
}

/// Emulated `module list` → currently loaded modules.
pub fn module_list(sess: &Session<'_>) -> Option<Vec<String>> {
    if sess.site.config.env_mgmt != EnvMgmt::Modules {
        return None;
    }
    Some(
        sess.env
            .get("LOADEDMODULES")
            .map(|v| {
                v.split(':')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
    )
}

/// Emulated SoftEnv database listing (`softenv`) → keys, or `None` when
/// SoftEnv is not installed or its database read faults.
pub fn softenv_keys(sess: &Session<'_>, attempt: u32) -> Option<Vec<String>> {
    let site = sess.site;
    if site.config.env_mgmt != EnvMgmt::SoftEnv {
        return None;
    }
    if sess
        .roll_fault(crate::faults::Chokepoint::ModuleDb, "softenv.db", attempt)
        .is_some()
    {
        return None;
    }
    let db = site.vfs().read_text("/etc/softenv/softenv.db").ok()?;
    Some(
        db.lines()
            .filter(|l| l.starts_with('+'))
            .filter_map(|l| l.split_whitespace().next())
            .map(|k| k.trim_start_matches('+').to_string())
            .collect(),
    )
}

/// Structured information parsed from a compiler/MPI wrapper executable
/// (emulating `mpicc -V` plus path-name inference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperInfo {
    pub kind: String,
    pub mpi: String,
    pub mpi_version: String,
    pub compiler: String,
    pub compiler_version: String,
    pub network: String,
    pub prefix: String,
}

/// Probe a wrapper executable (`<path> -V` equivalent).
pub fn wrapper_info(site: &Site, path: &str) -> Option<WrapperInfo> {
    if !site.vfs().is_executable(path) {
        return None;
    }
    let text = site.vfs().read_text(path).ok()?;
    if !text.starts_with("#!feam-sim-wrapper") {
        return None;
    }
    let get = |key: &str| -> Option<String> {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .map(str::to_string)
    };
    Some(WrapperInfo {
        kind: get("kind")?,
        mpi: get("mpi")?,
        mpi_version: get("mpi_version")?,
        compiler: get("compiler")?,
        compiler_version: get("compiler_version")?,
        network: get("network")?,
        prefix: get("prefix")?,
    })
}

/// Search the session `PATH` for an executable called `name` (emulated
/// `which`).
pub fn which(sess: &Session<'_>, name: &str) -> Option<String> {
    for dir in crate::site::env_dirs(&sess.env, "PATH") {
        let candidate = format!("{dir}/{name}");
        if sess.site.vfs().is_executable(&candidate) {
            return Some(candidate);
        }
    }
    None
}

/// Execute the C library binary directly and capture its banner (§V.B's
/// primary C-library-version discovery method).
pub fn run_libc_banner(sess: &Session<'_>, attempt: u32) -> Option<String> {
    let site = sess.site;
    if sess
        .roll_fault(
            crate::faults::Chokepoint::DescriptionFile,
            "libc-banner",
            attempt,
        )
        .is_some()
    {
        return None;
    }
    // Locate libc.so.6 the same way the BDC searches for libraries.
    let candidates = find_name(
        site,
        &["/lib64", "/lib", "/usr/lib64", "/usr/lib"],
        "libc.so.6",
    );
    if candidates.is_empty() {
        return None;
    }
    Some(crate::libc::libc_banner(
        &site.config.glibc,
        &site.config.os.pretty(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::{MpiImpl, MpiStack, Network};
    use crate::site::{OsInfo, SiteConfig};
    use crate::toolchain::{Compiler, CompilerFamily};
    use feam_elf::HostArch;

    fn site(env: EnvMgmt) -> Site {
        let mut cfg = SiteConfig::new(
            "tools-test",
            HostArch::X86_64,
            OsInfo::new("SUSE Linux Enterprise Server", "11", "2.6.32.12"),
            "2.11.1",
            17,
        );
        cfg.env_mgmt = env;
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.4.3")];
        cfg.stacks = vec![(
            MpiStack::new(
                MpiImpl::OpenMpi,
                "1.4",
                Compiler::new(CompilerFamily::Gnu, "4.4.3"),
                Network::Ethernet,
            ),
            true,
        )];
        Site::build(cfg)
    }

    #[test]
    fn uname_and_release_files() {
        let s = site(EnvMgmt::Modules);
        let sess = Session::new(&s);
        assert_eq!(uname_p(&s), "x86_64");
        assert!(proc_version(&sess, 1).unwrap().contains("SUSE"));
        assert!(etc_release(&sess, 1)
            .unwrap()
            .contains("SUSE Linux Enterprise Server 11"));
    }

    #[test]
    fn module_avail_lists_stacks() {
        let s = site(EnvMgmt::Modules);
        let sess = Session::new(&s);
        let mods = module_avail(&sess, 1).unwrap();
        assert!(mods.iter().any(|m| m.starts_with("openmpi-1.4")));
        assert!(softenv_keys(&sess, 1).is_none());
    }

    #[test]
    fn softenv_lists_stacks() {
        let s = site(EnvMgmt::SoftEnv);
        let sess = Session::new(&s);
        let keys = softenv_keys(&sess, 1).unwrap();
        assert!(keys.iter().any(|k| k.starts_with("openmpi-1.4")));
        assert!(module_avail(&sess, 1).is_none());
    }

    #[test]
    fn no_env_mgmt_returns_none_for_both() {
        let s = site(EnvMgmt::None);
        let sess = Session::new(&s);
        assert!(module_avail(&sess, 1).is_none());
        assert!(softenv_keys(&sess, 1).is_none());
    }

    #[test]
    fn description_faults_suppress_observations() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        let s = site(EnvMgmt::Modules);
        let faulty = Session::with_faults(&s, Arc::new(FaultPlan::persistent_edc(1, 1.0)));
        assert!(proc_version(&faulty, 1).is_none());
        assert!(etc_release(&faulty, 1).is_none());
        assert!(run_libc_banner(&faulty, 1).is_none());
        assert!(module_avail(&faulty, 1).is_none());
        // The same reads succeed without the plan.
        let clean = Session::with_faults(&s, Arc::new(FaultPlan::none()));
        assert!(proc_version(&clean, 1).is_some());
        assert!(module_avail(&clean, 1).is_some());
    }

    #[test]
    fn module_list_reflects_session_state() {
        let s = site(EnvMgmt::Modules);
        let mut sess = Session::new(&s);
        assert_eq!(module_list(&sess).unwrap(), Vec::<String>::new());
        let ist = s.stacks[0].clone();
        sess.load_stack(&ist);
        assert_eq!(module_list(&sess).unwrap(), vec![ist.stack.ident()]);
    }

    #[test]
    fn wrapper_probe_parses_stack_identity() {
        let s = site(EnvMgmt::Modules);
        let ist = &s.stacks[0];
        let info = wrapper_info(&s, &format!("{}/mpicc", ist.bin_dir())).unwrap();
        assert_eq!(info.mpi, "openmpi");
        assert_eq!(info.mpi_version, "1.4");
        assert_eq!(info.compiler, "gnu");
        assert_eq!(info.prefix, ist.prefix);
        assert!(
            wrapper_info(&s, "/usr/bin/gcc").is_none(),
            "not an MPI wrapper"
        );
    }

    #[test]
    fn which_searches_session_path() {
        let s = site(EnvMgmt::Modules);
        let mut sess = Session::new(&s);
        assert!(which(&sess, "mpicc").is_none());
        let ist = s.stacks[0].clone();
        sess.load_stack(&ist);
        assert_eq!(
            which(&sess, "mpicc").unwrap(),
            format!("{}/mpicc", ist.bin_dir())
        );
    }

    #[test]
    fn libc_banner_reports_site_version() {
        let s = site(EnvMgmt::Modules);
        let sess = Session::new(&s);
        assert!(run_libc_banner(&sess, 1).unwrap().contains("2.11.1"));
    }

    #[test]
    fn locate_respects_presence_flag() {
        let mut cfg = SiteConfig::new(
            "no-locate",
            HostArch::X86_64,
            OsInfo::new("CentOS", "4.9", "2.6.9"),
            "2.3.4",
            3,
        );
        cfg.locate_present = false;
        let s = Site::build(cfg);
        assert!(locate(&s, "libc").is_none());
        let s2 = site(EnvMgmt::Modules);
        assert!(locate(&s2, "libc")
            .unwrap()
            .iter()
            .any(|p| p.ends_with("libc.so.6")));
    }

    #[test]
    fn ldd_flakiness_is_deterministic() {
        let mut cfg = SiteConfig::new(
            "flaky",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            5,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        cfg.ldd_flaky_rate = 1.0; // always unrecognized
        let s = Site::build(cfg);
        let mut sess = Session::new(&s);
        let img = crate::compile::compile(
            &s,
            None,
            &crate::compile::ProgramSpec::serial_hello_world(),
            1,
        )
        .unwrap()
        .image;
        sess.stage_file("/home/user/x", img);
        assert_eq!(ldd(&sess, "/home/user/x"), LddResult::NotRecognized);
    }

    #[test]
    fn ldd_resolves_when_reliable() {
        let mut cfg = SiteConfig::new(
            "reliable",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            5,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        cfg.ldd_flaky_rate = 0.0;
        let s = Site::build(cfg);
        let mut sess = Session::new(&s);
        let img = crate::compile::compile(
            &s,
            None,
            &crate::compile::ProgramSpec::serial_hello_world(),
            1,
        )
        .unwrap()
        .image;
        sess.stage_file("/home/user/x", img);
        match ldd(&sess, "/home/user/x") {
            LddResult::Resolved(map) => {
                assert!(map.iter().any(|(n, p)| n == "libc.so.6" && p.is_some()));
            }
            other => panic!("expected Resolved, got {other:?}"),
        }
    }

    #[test]
    fn ldd_not_present() {
        let mut cfg = SiteConfig::new(
            "noldd",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            5,
        );
        cfg.ldd_present = false;
        let s = Site::build(cfg);
        let sess = Session::new(&s);
        assert_eq!(ldd(&sess, "/whatever"), LddResult::NotPresent);
    }
}
