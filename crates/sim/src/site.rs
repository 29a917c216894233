//! The simulated computing site: an immutable, fully-materialized model of
//! one cluster's login/compute environment.
//!
//! Everything FEAM can observe at a site lives in the site's [`Vfs`] or its
//! default environment variables: `/proc` and `/etc` description files, the
//! installed glibc, compiler runtimes and MPI stacks (as genuine ELF
//! images), module/softenv databases, and compiler wrappers. Per-migration
//! mutable state (selected stack, staged library copies) lives in a cheap
//! [`Session`] overlay so the evaluation can fan out across threads.

use crate::compile::ProbeBuilds;
use crate::libc;
use crate::libgen::build_library;
use crate::loader::{ObjectMeta, Walks};
use crate::mpi::{infiniband_blueprints, MpiStack, Network};
use crate::rng;
use crate::toolchain::{runtime_blueprints, Compiler, CompilerFamily};
use crate::vfs::{normalized, Content, Vfs};
use feam_elf::{Endian, HostArch, VersionName};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::{Arc, RwLock};

/// Environment variables of a shell.
pub type EnvMap = BTreeMap<String, String>;

/// Prepend `dir` to a `:`-separated path variable.
pub fn env_prepend(env: &mut EnvMap, key: &str, dir: &str) {
    let old = env.get(key).cloned().unwrap_or_default();
    let new = if old.is_empty() {
        dir.to_string()
    } else {
        format!("{dir}:{old}")
    };
    env.insert(key.to_string(), new);
}

/// Split a `:`-separated path variable into directories.
pub fn env_dirs(env: &EnvMap, key: &str) -> Vec<String> {
    path_list(env.get(key).map(String::as_str))
        .map(str::to_string)
        .collect()
}

/// The non-empty entries of a `:`-separated directory list (a path
/// variable, `DT_RPATH`, `DT_RUNPATH`), borrowed.
pub fn path_list(list: Option<&str>) -> impl Iterator<Item = &str> {
    list.into_iter()
        .flat_map(|v| v.split(':'))
        .filter(|d| !d.is_empty())
}

/// Operating-system identity of a site (Table II column 2).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct OsInfo {
    /// Distribution family, e.g. `CentOS`.
    pub distro: String,
    /// Release, e.g. `4.9`.
    pub release: String,
    /// Kernel version string.
    pub kernel: String,
}

impl OsInfo {
    pub fn new(distro: &str, release: &str, kernel: &str) -> Self {
        OsInfo {
            distro: distro.into(),
            release: release.into(),
            kernel: kernel.into(),
        }
    }

    /// One-line description, e.g. `CentOS 4.9`.
    pub fn pretty(&self) -> String {
        format!("{} {}", self.distro, self.release)
    }

    /// The `/etc/*release` file (path, contents) this distribution ships.
    pub fn release_file(&self) -> (String, String) {
        match self.distro.as_str() {
            "CentOS" => (
                "/etc/redhat-release".into(),
                format!("CentOS release {} (Final)", self.release),
            ),
            "Red Hat Enterprise Linux Server" => (
                "/etc/redhat-release".into(),
                format!(
                    "Red Hat Enterprise Linux Server release {} (Tikanga)",
                    self.release
                ),
            ),
            "SUSE Linux Enterprise Server" => (
                "/etc/SuSE-release".into(),
                format!(
                    "SUSE Linux Enterprise Server {} (x86_64)\nVERSION = {}",
                    self.release, self.release
                ),
            ),
            _ => (
                "/etc/os-release".into(),
                format!("NAME={}\nVERSION={}", self.distro, self.release),
            ),
        }
    }

    /// The `/proc/version` contents.
    pub fn proc_version(&self) -> String {
        format!(
            "Linux version {} (mockbuild@build) (gcc version 4.1.2) #1 SMP {}",
            self.kernel,
            self.pretty()
        )
    }
}

/// User-environment management system present at a site (§V.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EnvMgmt {
    /// TCL Environment Modules (`module avail`, `module list`).
    Modules,
    /// ANL SoftEnv (`softenv`, `~/.soft`).
    SoftEnv,
    /// Neither — FEAM must fall back to filesystem search.
    None,
}

/// One MPI stack installation at a site.
#[derive(Debug, Clone)]
pub struct InstalledStack {
    pub stack: MpiStack,
    /// Install prefix, e.g. `/opt/openmpi-1.4.3-intel-11.1`.
    pub prefix: String,
    /// Module / softenv key, when the site has env management.
    pub module_name: Option<String>,
    /// False when the installation is misconfigured (advertised but
    /// unusable — §III.B's "possible for the MPI stack combination to not
    /// be useable").
    pub functional: bool,
}

impl InstalledStack {
    /// The stack's library directory.
    pub fn lib_dir(&self) -> String {
        format!("{}/lib", self.prefix)
    }

    /// The stack's binary (wrapper) directory.
    pub fn bin_dir(&self) -> String {
        format!("{}/bin", self.prefix)
    }
}

/// One compiler installation at a site.
#[derive(Debug, Clone)]
pub struct InstalledCompiler {
    pub compiler: Compiler,
    /// Directory holding the compiler's runtime shared libraries.
    pub lib_dir: String,
    /// Directory holding the compiler executables.
    pub bin_dir: String,
}

/// Configuration from which a [`Site`] is materialized.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    pub name: String,
    /// Short description, e.g. `MPP – 62,976 CPUs`.
    pub description: String,
    pub arch: HostArch,
    pub os: OsInfo,
    /// Dotted glibc version, e.g. `2.3.4`.
    pub glibc: String,
    pub env_mgmt: EnvMgmt,
    pub compilers: Vec<Compiler>,
    /// (stack, functional) pairs.
    pub stacks: Vec<(MpiStack, bool)>,
    /// Probability a (binary, site) pair suffers a persistent system error
    /// (failed daemon spawning, communication timeouts) — the failure class
    /// §VI.C says the model cannot predict.
    pub system_error_rate: f64,
    /// Per-attempt probability of a transient launch failure (daemon spawn
    /// hiccup, momentary communication timeout) — the class the paper's
    /// "five execution attempts spaced in time" absorbs. Sweeps vary this
    /// instead of relying on a hard-coded constant.
    pub transient_error_rate: f64,
    /// Exact compiler-runtime versions whose binaries raise floating-point
    /// exceptions at this site (detected only by extended prediction's
    /// transported hello-world tests).
    pub fpe_triggers: Vec<(CompilerFamily, String)>,
    /// Additional compiler runtimes installed system-wide (distro compat
    /// packages / lingering older toolchains): libraries only, placed in
    /// the default library directories.
    pub compat_runtimes: Vec<Compiler>,
    /// Probability that a runtime/MPI library installed here was built
    /// against the site's full glibc level (making copies non-portable to
    /// older sites) rather than the architecture baseline.
    pub hot_glibc_bias: f64,
    /// Is `ldd` present at all?
    pub ldd_present: bool,
    /// Fraction of binaries `ldd` fails to recognise as dynamically linked
    /// (the paper's "cannot be relied on" caveat).
    pub ldd_flaky_rate: f64,
    /// Is `locate` present (with a fresh database)?
    pub locate_present: bool,
    /// Deterministic seed for everything site-specific.
    pub seed: u64,
}

impl SiteConfig {
    /// Reasonable defaults; callers override fields as needed.
    pub fn new(name: &str, arch: HostArch, os: OsInfo, glibc: &str, seed: u64) -> Self {
        SiteConfig {
            name: name.into(),
            description: String::new(),
            arch,
            os,
            glibc: glibc.into(),
            env_mgmt: EnvMgmt::Modules,
            compilers: Vec::new(),
            stacks: Vec::new(),
            system_error_rate: 0.03,
            transient_error_rate: 0.12,
            fpe_triggers: Vec::new(),
            compat_runtimes: Vec::new(),
            hot_glibc_bias: 0.5,
            ldd_present: true,
            ldd_flaky_rate: 0.1,
            locate_present: true,
            seed,
        }
    }

    /// Zero every stochastic fault knob (system errors, transient launch
    /// failures, flaky `ldd`). Generated conformance universes and any
    /// other harness that asserts exact outcome equality build their
    /// sites through this hook so nondeterminism is impossible by
    /// construction rather than by configuration discipline.
    pub fn deterministic(mut self) -> Self {
        self.system_error_rate = 0.0;
        self.transient_error_rate = 0.0;
        self.ldd_flaky_rate = 0.0;
        self
    }
}

/// Past this many memoized directory probes a site answers further new
/// pairs without storing them, so odd inputs cannot grow it without bound.
const PROBE_MEMO_CAP: usize = 1 << 16;

/// What a site's own tree (no session overlay) holds at `<dir>/<name>`.
#[derive(Debug, Clone)]
pub enum DirProbe {
    /// Nothing there, even through a symlink.
    Absent,
    /// An installed ELF; its metadata is the site's cached entry.
    Elf(Arc<ObjectMeta>),
    /// Something else: a non-ELF file, a directory. A loader reads it.
    Other,
}

/// A fully materialized site. Immutable after construction; share freely
/// across threads.
///
/// The filesystem is private and read through [`Site::vfs`], so nothing
/// changes a site after [`Site::build`]. Four memos rely on that; each
/// stores the answer to a pure question about the site the first time it
/// is asked:
/// * the metadata of every installed ELF, parsed at build time, by real
///   path ([`Site::meta_at`]);
/// * directory probes, `(normal dir, name)` → [`DirProbe`]
///   ([`Site::probe`]), read by the loader's search and FEAM's
///   loader-visibility rule;
/// * probe compiles, `(stack, program, seed)` → the built binary
///   ([`crate::compile::compile_in_session`]);
/// * loader walks: `ldd` listings and launch verdicts by root image and
///   `LD_LIBRARY_PATH` ([`crate::loader::ldd_map_from`]), stored only for
///   walks the probe memo answered alone and served only to sessions that
///   stage nothing under a directory the walk probed.
pub struct Site {
    pub config: SiteConfig,
    vfs: Vfs,
    pub stacks: Vec<InstalledStack>,
    pub compilers: Vec<InstalledCompiler>,
    /// Parsed metadata for every installed ELF, keyed by resolved path.
    meta: HashMap<String, Arc<ObjectMeta>>,
    /// Directory probes, dir → name → what is there.
    probes: RwLock<HashMap<String, HashMap<String, DirProbe>>>,
    /// Probe compiles, filled by `compile_in_session`.
    pub(crate) probe_builds: ProbeBuilds,
    /// Loader walks, filled by `ldd` and launches.
    pub(crate) walks: Walks,
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site")
            .field("name", &self.config.name)
            .field("stacks", &self.stacks.len())
            .finish()
    }
}

impl Site {
    /// Materialize a site from its configuration: populate `/proc`, `/etc`,
    /// glibc, compilers, MPI stacks, module databases and wrappers.
    pub fn build(config: SiteConfig) -> Self {
        let mut vfs = Vfs::new();
        let endian = Endian::Little; // all testbed architectures are LE
        let (machine, class) = config.arch.native_target();
        let seed = config.seed;

        for d in ["/tmp", "/home", "/proc", "/etc", "/usr/bin", "/bin"] {
            vfs.mkdir_p(d);
        }
        vfs.write_text("/proc/version", config.os.proc_version());
        vfs.write_text(
            "/proc/cpuinfo",
            format!("model name : generic {}\n", config.arch.uname_p()),
        );
        let (rel_path, rel_text) = config.os.release_file();
        vfs.write_text(&rel_path, rel_text);

        let lib_dir = match class {
            feam_elf::Class::Elf64 => "/lib64",
            feam_elf::Class::Elf32 => "/lib",
        };
        let usr_lib_dir = match class {
            feam_elf::Class::Elf64 => "/usr/lib64",
            feam_elf::Class::Elf32 => "/usr/lib",
        };

        // --- glibc family -------------------------------------------------
        for bp in libc::libc_blueprints(&config.glibc, class) {
            let mut bp = bp;
            bp.filename = bp.filename.replace("2.x", &config.glibc);
            install_blueprint(&mut vfs, lib_dir, &bp, machine, class, endian);
        }
        // Dynamic loader itself.
        vfs.write_executable(
            &format!("{lib_dir}/ld-{}.so", config.glibc),
            Arc::new(vec![0x7f, b'E', b'L', b'F']),
        );
        vfs.symlink(
            match class {
                feam_elf::Class::Elf64 => "/lib64/ld-linux-x86-64.so.2",
                feam_elf::Class::Elf32 => "/lib/ld-linux.so.2",
            },
            &format!("{lib_dir}/ld-{}.so", config.glibc),
        );

        // --- compilers -----------------------------------------------------
        let mut compilers = Vec::new();
        for c in &config.compilers {
            let (clib, cbin) = match c.family {
                CompilerFamily::Gnu => (usr_lib_dir.to_string(), "/usr/bin".to_string()),
                CompilerFamily::Intel => (
                    format!("/opt/intel/Compiler/{}/lib/intel64", c.version),
                    format!("/opt/intel/Compiler/{}/bin/intel64", c.version),
                ),
                CompilerFamily::Pgi => (
                    format!("/opt/pgi/linux86-64/{}/lib", c.version),
                    format!("/opt/pgi/linux86-64/{}/bin", c.version),
                ),
            };
            // Was each runtime library built against the site's full glibc
            // level or the architecture baseline? Decided per library — it
            // determines whether a copy of that library is portable to
            // older-glibc sites during resolution.
            let baseline = format!("GLIBC_{}", libc::baseline_for(class));
            let hot_ver = format!("GLIBC_{}", config.glibc);
            for mut bp in runtime_blueprints(c, &baseline, seed) {
                if rng::chance(
                    seed,
                    &[&c.ident(), &bp.soname, "hot-glibc"],
                    config.hot_glibc_bias,
                ) {
                    for imp in &mut bp.imports {
                        if imp.file == "libc.so.6" {
                            imp.version = Some(hot_ver.clone());
                        }
                    }
                }
                install_blueprint(&mut vfs, &clib, &bp, machine, class, endian);
            }
            vfs.write_executable(
                &format!("{cbin}/{}", c.family.cc()),
                Arc::new(compiler_driver_text(c).into_bytes()),
            );
            vfs.write_executable(
                &format!("{cbin}/{}", c.family.fc()),
                Arc::new(compiler_driver_text(c).into_bytes()),
            );
            compilers.push(InstalledCompiler {
                compiler: c.clone(),
                lib_dir: clib,
                bin_dir: cbin,
            });
        }

        // --- compat runtime packages (system lib dirs, loader-visible) -----
        for c in &config.compat_runtimes {
            let glibc_imp = format!("GLIBC_{}", libc::baseline_for(class));
            for bp in runtime_blueprints(c, &glibc_imp, seed) {
                // Never shadow the primary toolchain's files.
                let target = format!("{usr_lib_dir}/{}", bp.filename);
                if !vfs.exists(&target) {
                    install_blueprint(&mut vfs, usr_lib_dir, &bp, machine, class, endian);
                }
            }
        }

        // --- InfiniBand userspace (system level) ---------------------------
        if config
            .stacks
            .iter()
            .any(|(s, _)| s.network == Network::Infiniband)
        {
            let glibc_imp = format!("GLIBC_{}", libc::baseline_for(class));
            for bp in infiniband_blueprints(&glibc_imp) {
                install_blueprint(&mut vfs, usr_lib_dir, &bp, machine, class, endian);
            }
        }

        // --- MPI stacks ------------------------------------------------------
        let mut stacks = Vec::new();
        for (stack, functional) in &config.stacks {
            let prefix = stack.prefix();
            let libdir = if *functional {
                format!("{prefix}/lib")
            } else {
                // Misconfiguration: the libraries were moved aside (e.g. by
                // a botched upgrade); the module still advertises the stack.
                format!("{prefix}/lib.orig")
            };
            let baseline = format!("GLIBC_{}", libc::baseline_for(class));
            let hot_ver = format!("GLIBC_{}", config.glibc);
            for mut bp in stack.library_blueprints(&baseline, seed) {
                if rng::chance(
                    seed,
                    &[&stack.ident(), &bp.soname, "hot-glibc"],
                    config.hot_glibc_bias,
                ) {
                    for imp in &mut bp.imports {
                        if imp.file == "libc.so.6" {
                            imp.version = Some(hot_ver.clone());
                        }
                    }
                }
                install_blueprint(&mut vfs, &libdir, &bp, machine, class, endian);
            }
            vfs.mkdir_p(&format!("{prefix}/lib"));
            for w in stack.wrapper_names() {
                vfs.write_executable(
                    &format!("{prefix}/bin/{w}"),
                    Arc::new(wrapper_text(w, stack, &prefix).into_bytes()),
                );
            }
            let module_name = match config.env_mgmt {
                EnvMgmt::Modules | EnvMgmt::SoftEnv => Some(stack.ident()),
                EnvMgmt::None => None,
            };
            stacks.push(InstalledStack {
                stack: stack.clone(),
                prefix: prefix.clone(),
                module_name,
                functional: *functional,
            });
        }

        // --- env-management databases -----------------------------------------
        match config.env_mgmt {
            EnvMgmt::Modules => {
                for ist in &stacks {
                    let name = ist.module_name.as_deref().expect("modules site has names");
                    let comp_bin = compilers
                        .iter()
                        .find(|ic| ic.compiler == ist.stack.compiler)
                        .map(|ic| ic.bin_dir.clone())
                        .unwrap_or_default();
                    let comp_lib = compilers
                        .iter()
                        .find(|ic| ic.compiler == ist.stack.compiler)
                        .map(|ic| ic.lib_dir.clone())
                        .unwrap_or_default();
                    vfs.write_text(
                        &format!("/usr/share/Modules/modulefiles/mpi/{name}"),
                        format!(
                            "#%Module1.0\n\
                             module-whatis \"{} {} with {} {}\"\n\
                             prepend-path PATH {}/bin\n\
                             prepend-path PATH {comp_bin}\n\
                             prepend-path LD_LIBRARY_PATH {}/lib\n\
                             prepend-path LD_LIBRARY_PATH {comp_lib}\n",
                            ist.stack.mpi.name(),
                            ist.stack.version,
                            ist.stack.compiler.family.name(),
                            ist.stack.compiler.version,
                            ist.prefix,
                            ist.prefix,
                        ),
                    );
                }
            }
            EnvMgmt::SoftEnv => {
                let mut db = String::from("# softenv database\n");
                for ist in &stacks {
                    let name = ist.module_name.as_deref().expect("softenv site has names");
                    db.push_str(&format!(
                        "+{name} PATH={}/bin LD_LIBRARY_PATH={}/lib\n",
                        ist.prefix, ist.prefix
                    ));
                }
                vfs.write_text("/etc/softenv/softenv.db", db);
            }
            EnvMgmt::None => {}
        }

        // --- metadata cache over every ELF in the tree --------------------------
        let mut meta = HashMap::new();
        let paths: Vec<String> = vfs.all_paths().map(str::to_string).collect();
        for p in paths {
            if let Ok(Content::Bytes(bytes)) = vfs.read(&p) {
                if bytes.len() > 64 && bytes[..4] == [0x7f, b'E', b'L', b'F'] {
                    if let Ok(m) = ObjectMeta::parse(bytes) {
                        meta.insert(p.clone(), Arc::new(m));
                    }
                }
            }
        }

        Site {
            config,
            vfs,
            stacks,
            compilers,
            meta,
            probes: RwLock::default(),
            probe_builds: ProbeBuilds::default(),
            walks: Walks::default(),
        }
    }

    /// The site's filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Glibc version as a [`VersionName`].
    pub fn glibc_version(&self) -> VersionName {
        libc::glibc_version(&self.config.glibc)
    }

    /// Default library directories searched by the loader (ld.so.cache
    /// stand-in).
    pub fn default_lib_dirs(&self) -> &'static [&'static str] {
        match self.config.arch.native_target().1 {
            feam_elf::Class::Elf64 => &["/lib64", "/usr/lib64"],
            feam_elf::Class::Elf32 => &["/lib", "/usr/lib"],
        }
    }

    /// The login shell's default environment.
    pub fn default_env(&self) -> EnvMap {
        let mut env = EnvMap::new();
        env.insert("PATH".into(), "/usr/bin:/bin".into());
        env.insert("HOME".into(), "/home/user".into());
        env
    }

    /// Cached metadata for an installed ELF at `path` (resolved through
    /// symlinks).
    pub fn meta_for(&self, path: &str) -> Option<Arc<ObjectMeta>> {
        let (real, _) = self.vfs.resolved(path)?;
        self.meta_at(&real)
    }

    /// Cached metadata for the installed ELF whose real (resolved, normal)
    /// path is `real`.
    pub fn meta_at(&self, real: &str) -> Option<Arc<ObjectMeta>> {
        self.meta.get(real).cloned()
    }

    /// What the site holds at `<dir>/<name>`, worked out once per pair:
    /// `None` unless `dir` is a normal directory path other than `/` and
    /// `name` one plain component, the spellings for which
    /// `"{dir}/{name}"` is the normal path. Overlays are the caller's
    /// business.
    pub fn probe(&self, dir: &str, name: &str) -> Option<DirProbe> {
        let plain_name = !name.is_empty() && !name.contains('/') && name != "." && name != "..";
        if !plain_name || dir == "/" || matches!(normalized(dir), Cow::Owned(_)) {
            return None;
        }
        let probes = self.probes.read().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = probes.get(dir).and_then(|names| names.get(name)) {
            return Some(hit.clone());
        }
        let stored = probes.values().map(HashMap::len).sum::<usize>();
        drop(probes);
        let probe = match self.vfs.resolved(&format!("{dir}/{name}")) {
            None => DirProbe::Absent,
            Some((real, _)) => self.meta_at(&real).map_or(DirProbe::Other, DirProbe::Elf),
        };
        if stored < PROBE_MEMO_CAP {
            let mut probes = self.probes.write().unwrap_or_else(|e| e.into_inner());
            probes
                .entry(dir.to_string())
                .or_default()
                .insert(name.to_string(), probe.clone());
        }
        Some(probe)
    }

    /// Root images whose loader walks the site holds, live or dead (a
    /// dead root's walks go at a later store): for tests and
    /// introspection.
    pub fn memoized_walk_roots(&self) -> usize {
        self.walks.roots()
    }

    /// Find the installed compiler matching `family` (any version).
    pub fn compiler(&self, family: CompilerFamily) -> Option<&InstalledCompiler> {
        self.compilers.iter().find(|c| c.compiler.family == family)
    }

    /// All installed stacks of a given MPI implementation.
    pub fn stacks_of(&self, mpi: crate::mpi::MpiImpl) -> Vec<&InstalledStack> {
        self.stacks.iter().filter(|s| s.stack.mpi == mpi).collect()
    }
}

/// Install one blueprint: real file + symlinks into `dir`.
fn install_blueprint(
    vfs: &mut Vfs,
    dir: &str,
    bp: &crate::toolchain::LibraryBlueprint,
    machine: feam_elf::Machine,
    class: feam_elf::Class,
    endian: Endian,
) {
    let img =
        build_library(bp, machine, class, endian).expect("blueprint must produce a valid ELF");
    let real = format!("{dir}/{}", bp.filename);
    vfs.write_bytes(&real, img);
    for link in &bp.links {
        if link != &bp.filename {
            vfs.symlink(&format!("{dir}/{link}"), &bp.filename);
        }
    }
}

/// Text body of a compiler driver executable (parsed by tool emulation).
fn compiler_driver_text(c: &Compiler) -> String {
    format!(
        "#!feam-sim-driver\nkind=compiler\nfamily={}\nversion={}\n",
        c.family.tag(),
        c.version
    )
}

/// Text body of an MPI wrapper executable (parsed by tool emulation; the
/// path-name inference trick of §V.B also works because the prefix encodes
/// the stack identity).
fn wrapper_text(kind: &str, stack: &MpiStack, prefix: &str) -> String {
    format!(
        "#!feam-sim-wrapper\nkind={kind}\nmpi={}\nmpi_version={}\ncompiler={}\ncompiler_version={}\nnetwork={}\nprefix={prefix}\n",
        stack.mpi.tag(),
        stack.version,
        stack.compiler.family.tag(),
        stack.compiler.version,
        stack.network.name(),
    )
}

/// A per-migration mutable view over an immutable [`Site`]: environment
/// variables, staged (copied-in) files, and CPU-time accounting.
#[derive(Clone)]
pub struct Session<'s> {
    pub site: &'s Site,
    pub env: EnvMap,
    /// Overlay files (library copies, submitted binaries): path → bytes.
    pub staged: BTreeMap<String, Arc<Vec<u8>>>,
    /// Accumulated simulated CPU seconds (for §VI.C's < 5 min statistic).
    pub cpu_seconds: f64,
    /// Trace/metrics sink for everything executed in this session
    /// (disabled — and nearly free — by default).
    pub recorder: feam_obs::Recorder,
    /// Deterministic fault-injection schedule consulted at every
    /// chokepoint this session touches. Defaults to the process-wide plan
    /// from `FEAM_CHAOS_RATE`/`FEAM_CHAOS_SEED` (silent when unset).
    pub faults: Arc<crate::faults::FaultPlan>,
    /// Number of injected faults that actually fired in this session.
    /// Cache layers compare before/after counts to refuse memoizing any
    /// computation a fault touched (see `feam-core::cache`).
    pub faults_seen: std::cell::Cell<u64>,
}

impl<'s> Session<'s> {
    /// New session with the site's default login environment.
    pub fn new(site: &'s Site) -> Self {
        Session {
            site,
            env: site.default_env(),
            staged: BTreeMap::new(),
            cpu_seconds: 0.0,
            recorder: feam_obs::Recorder::disabled(),
            faults: crate::faults::default_plan(),
            faults_seen: std::cell::Cell::new(0),
        }
    }

    /// New session with an attached trace recorder.
    pub fn with_recorder(site: &'s Site, recorder: feam_obs::Recorder) -> Self {
        let mut sess = Session::new(site);
        sess.recorder = recorder;
        sess
    }

    /// New session with an explicit fault plan.
    pub fn with_faults(site: &'s Site, faults: Arc<crate::faults::FaultPlan>) -> Self {
        let mut sess = Session::new(site);
        sess.faults = faults;
        sess
    }

    /// Roll for an injected fault and, if one fires, record it in the
    /// session's telemetry. Returns the fault kind so callers decide how
    /// the failure manifests at their chokepoint.
    pub fn roll_fault(
        &self,
        c: crate::faults::Chokepoint,
        key: &str,
        attempt: u32,
    ) -> Option<crate::faults::FaultKind> {
        if self.faults.rate(c).is_zero() {
            return None;
        }
        // Scope the draw to this site: the same chokepoint key (e.g.
        // "/proc/version") must fault independently at different sites,
        // not globally for every session sharing the plan seed.
        let scoped = format!("{}:{}", self.site.name(), key);
        let kind = self.faults.roll(c, &scoped, attempt)?;
        self.faults_seen.set(self.faults_seen.get() + 1);
        self.recorder.event(
            "fault_injected",
            &[
                ("chokepoint", c.label().into()),
                ("key", key.into()),
                ("kind", kind.label().into()),
                ("attempt", attempt.into()),
            ],
        );
        self.recorder.count("faults.injected", 1);
        self.recorder.count(&format!("faults.{}", c.label()), 1);
        Some(kind)
    }

    /// Apply a stack selection (`module load` equivalent): prepend the
    /// stack's bin/lib dirs and its compiler's bin/lib dirs.
    pub fn load_stack(&mut self, ist: &InstalledStack) {
        env_prepend(&mut self.env, "PATH", &ist.bin_dir());
        env_prepend(&mut self.env, "LD_LIBRARY_PATH", &ist.lib_dir());
        if let Some(ic) = self.site.compiler(ist.stack.compiler.family) {
            env_prepend(&mut self.env, "PATH", &ic.bin_dir);
            env_prepend(&mut self.env, "LD_LIBRARY_PATH", &ic.lib_dir);
        }
        self.env.insert("LOADEDMODULES".into(), ist.stack.ident());
        self.charge(0.05);
    }

    /// Stage a file into the session overlay.
    pub fn stage_file(&mut self, path: &str, bytes: Arc<Vec<u8>>) {
        self.staged.insert(crate::vfs::normalize(path), bytes);
        self.charge(0.01);
    }

    /// Read a file: overlay first, then the site filesystem. An injected
    /// VFS fault makes the read fail as if the file were unreadable —
    /// staged overlays included (NFS does not care who wrote the file).
    pub fn read_bytes(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        let norm = crate::vfs::normalized(path);
        if self
            .roll_fault(crate::faults::Chokepoint::VfsRead, &norm, 1)
            .is_some()
        {
            return None;
        }
        if let Some(b) = self.staged.get(norm.as_ref()) {
            return Some(b.clone());
        }
        match self.site.vfs.read(&norm).ok()? {
            Content::Bytes(b) => Some(b.clone()),
            Content::Text(t) => Some(Arc::new(t.as_bytes().to_vec())),
        }
    }

    /// Does a path exist in overlay or site?
    pub fn exists(&self, path: &str) -> bool {
        let norm = crate::vfs::normalized(path);
        self.staged.contains_key(norm.as_ref()) || self.site.vfs.exists(&norm)
    }

    /// Does the overlay hold a file under the normal directory `dir`, at
    /// any depth?
    pub(crate) fn stages_under(&self, dir: &str) -> bool {
        // Every key with `dir` as a prefix sorts in one run after `dir`.
        self.staged
            .range::<str, _>((Bound::Excluded(dir), Bound::Unbounded))
            .map(|(p, _)| p)
            .take_while(|p| p.starts_with(dir))
            .any(|p| p.as_bytes().get(dir.len()) == Some(&b'/'))
    }

    /// Directories currently on `LD_LIBRARY_PATH`.
    pub fn ld_library_path(&self) -> Vec<String> {
        env_dirs(&self.env, "LD_LIBRARY_PATH")
    }

    /// Add simulated CPU time.
    pub fn charge(&mut self, seconds: f64) {
        self.cpu_seconds += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::MpiImpl;

    fn tiny_site() -> Site {
        let mut cfg = SiteConfig::new(
            "testsite",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18-238.el5"),
            "2.5",
            7,
        );
        cfg.compilers = vec![
            Compiler::new(CompilerFamily::Gnu, "4.1.2"),
            Compiler::new(CompilerFamily::Intel, "11.1"),
        ];
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
                    MpiImpl::Mvapich2,
                    "1.7a",
                    Compiler::new(CompilerFamily::Intel, "11.1"),
                    Network::Infiniband,
                ),
                false, // misconfigured
            ),
        ];
        Site::build(cfg)
    }

    #[test]
    fn site_has_os_description_files() {
        let s = tiny_site();
        assert!(s
            .vfs
            .read_text("/proc/version")
            .unwrap()
            .contains("CentOS 5.6"));
        assert!(s
            .vfs
            .read_text("/etc/redhat-release")
            .unwrap()
            .contains("5.6"));
    }

    #[test]
    fn glibc_installed_with_symlink() {
        let s = tiny_site();
        assert!(s.vfs.exists("/lib64/libc.so.6"));
        let meta = s.meta_for("/lib64/libc.so.6").unwrap();
        assert_eq!(meta.soname.as_deref(), Some("libc.so.6"));
        assert!(meta.version_defs.iter().any(|d| d == "GLIBC_2.5"));
        assert!(!meta.version_defs.iter().any(|d| d == "GLIBC_2.7"));
    }

    #[test]
    fn functional_stack_libs_in_lib_dir() {
        let s = tiny_site();
        let om = &s.stacks[0];
        assert!(om.functional);
        assert!(s.vfs.exists(&format!("{}/libmpi.so.0", om.lib_dir())));
        assert!(s.vfs.is_executable(&format!("{}/mpicc", om.bin_dir())));
    }

    #[test]
    fn misconfigured_stack_libs_moved_aside() {
        let s = tiny_site();
        let mv = &s.stacks[1];
        assert!(!mv.functional);
        assert!(!s.vfs.exists(&format!("{}/libmpich.so.1.2", mv.lib_dir())));
        assert!(s
            .vfs
            .exists(&format!("{}/lib.orig/libmpich.so.1.2", mv.prefix)));
        // The module still advertises it.
        assert!(s.vfs.exists(&format!(
            "/usr/share/Modules/modulefiles/mpi/{}",
            mv.stack.ident()
        )));
    }

    #[test]
    fn intel_runtime_installed_under_opt() {
        let s = tiny_site();
        let intel = s.compiler(CompilerFamily::Intel).unwrap();
        assert!(intel.lib_dir.starts_with("/opt/intel"));
        assert!(s.vfs.exists(&format!("{}/libimf.so", intel.lib_dir)));
        let meta = s.meta_for(&format!("{}/libimf.so", intel.lib_dir)).unwrap();
        assert!(meta.exports.iter().any(|(n, _)| n == "__intel_rt_v11"));
    }

    #[test]
    fn infiniband_libs_present_because_mvapich_stack_exists() {
        let s = tiny_site();
        assert!(s.vfs.exists("/usr/lib64/libibverbs.so.1"));
    }

    #[test]
    fn session_stack_loading_sets_paths() {
        let s = tiny_site();
        let mut sess = Session::new(&s);
        assert!(sess.ld_library_path().is_empty());
        let om = s.stacks[0].clone();
        sess.load_stack(&om);
        let ld = sess.ld_library_path();
        assert!(ld.contains(&om.lib_dir()));
        // Compiler lib dir is added too.
        assert!(ld.iter().any(|d| d.contains("/usr/lib64")));
        assert!(sess.cpu_seconds > 0.0);
    }

    #[test]
    fn session_overlay_shadows_site() {
        let s = tiny_site();
        let mut sess = Session::new(&s);
        assert!(!sess.exists("/staging/libfoo.so.1"));
        sess.stage_file("/staging/libfoo.so.1", Arc::new(vec![1, 2, 3]));
        assert!(sess.exists("/staging/libfoo.so.1"));
        assert_eq!(
            sess.read_bytes("/staging/libfoo.so.1").unwrap().as_slice(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn stacks_of_filters_by_impl() {
        let s = tiny_site();
        assert_eq!(s.stacks_of(MpiImpl::OpenMpi).len(), 1);
        assert_eq!(s.stacks_of(MpiImpl::Mpich2).len(), 0);
    }

    #[test]
    fn env_prepend_and_dirs() {
        let mut env = EnvMap::new();
        env_prepend(&mut env, "PATH", "/a");
        env_prepend(&mut env, "PATH", "/b");
        assert_eq!(env_dirs(&env, "PATH"), vec!["/b", "/a"]);
        assert!(env_dirs(&env, "NOPE").is_empty());
    }
}
