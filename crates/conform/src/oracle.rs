//! The reference oracle: a straight-line reimplementation of the paper's
//! prediction + resolution decision rules.
//!
//! What the oracle intentionally does NOT share with the pipeline:
//!
//! - **No `feam-core` code.** Table I identification, the C-library rule,
//!   missing-library search, the resolution recursion, verdict synthesis
//!   and the naive plan are all reimplemented here from the paper's rules.
//! - **No `Session`.** The oracle reads `Site` ground truth (config, VFS,
//!   installed stacks) directly and keeps its own overlay + environment
//!   model in `World`.
//! - **No caches, no retry, no telemetry.** Every answer is computed
//!   fresh from first principles.
//!
//! What it *does* share, deliberately: the `feam-elf` container parser
//! (both sides must read the same file format), `feam_sim::compile`
//! for probe synthesis (what binary a compiler would produce is world
//! physics, not a decision rule), and the `feam-provenance` signature
//! matcher (a seeded database lookup over code bytes — shared data, like
//! the parser). The `SourceBundle` is consumed as data produced by the
//! real source phase. The *decision rules* over provenance claims —
//! when fallback evidence applies, how statically linked binaries
//! degrade, how claims feed the naive plan — are reimplemented here.

use feam_core::bundle::SourceBundle;
use feam_elf::{Class, LazyElf, Machine, VersionName};
use feam_sim::compile::{compile, ProgramSpec};
use feam_sim::mpi::MpiImpl;
use feam_sim::site::{EnvMgmt, InstalledStack, Site};
use feam_sim::toolchain::{CompilerFamily, Language};
use feam_sim::vfs;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Path the migrated application binary is staged at (mirrors `tec`).
const APP_PATH: &str = "/home/user/feam/app.bin";
/// Staging directory for resolved library copies (mirrors `tec`).
const STAGING_DIR: &str = "/home/user/feam/resolved";
const HELLO_NATIVE: &str = "/home/user/feam/hello_native";
const HELLO_TRANSPORTED: &str = "/home/user/feam/hello_transported";

/// Test-only mutations of the oracle's rules, used to prove the harness
/// actually catches divergences (a differential test that cannot fail is
/// not a test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMutation {
    /// Invert the C-library comparison (Determinant 3).
    InvertCLibraryRule,
}

/// What the oracle expects the pipeline to conclude for one
/// (binary, site, mode) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// `(determinant name, verdict label)` in evaluation/recording order.
    pub verdicts: Vec<(String, String)>,
    pub ready: bool,
    pub degraded: bool,
    pub confidence: f64,
    /// Stack ident of the emitted execution plan, if any.
    pub plan_stack: Option<String>,
    /// Sonames resolved (staged) from the bundle, sorted.
    pub resolved: Vec<String>,
}

/// Parsed metadata of one ELF object — the oracle's own extraction over
/// the shared `feam-elf` parser.
#[derive(Debug)]
pub struct Meta {
    class: Class,
    machine: Machine,
    /// Whether the object carries a dynamic section at all.
    is_dynamic: bool,
    /// Fallback evidence, present only when direct evidence channels are
    /// missing (mirrors the BDC's gating on the evidence survey).
    provenance: Option<feam_provenance::ProvenanceReport>,
    soname: Option<String>,
    needed: Vec<String>,
    rpath: Option<String>,
    runpath: Option<String>,
    /// `(file, [(version, weak)])` verneed records.
    version_refs: Vec<(String, Vec<(String, bool)>)>,
    version_defs: Vec<String>,
    exports: Vec<(String, Option<String>)>,
    imports: Vec<(String, Option<String>, bool)>,
    required_glibc: Option<VersionName>,
    comments: Vec<String>,
}

fn parse_meta(bytes: &[u8]) -> Option<Meta> {
    let f = LazyElf::parse(bytes).ok()?;
    let evidence = f.evidence();
    let provenance = if evidence.needs_fallback() {
        Some(feam_provenance::analyze(&f)).filter(|r| !r.is_empty())
    } else {
        None
    };
    Some(Meta {
        class: f.class(),
        machine: f.machine(),
        is_dynamic: f.is_dynamic(),
        provenance,
        soname: f.soname().map(str::to_string),
        needed: f.needed().iter().map(|n| n.to_string()).collect(),
        rpath: f.rpath().map(str::to_string),
        runpath: f.runpath().map(str::to_string),
        version_refs: f
            .version_refs()
            .iter()
            .map(|vr| {
                (
                    vr.file.to_string(),
                    vr.versions
                        .iter()
                        .map(|v| (v.name.to_string(), v.weak))
                        .collect(),
                )
            })
            .collect(),
        version_defs: f
            .version_defs()
            .iter()
            .map(|d| d.name.to_string())
            .collect(),
        exports: f
            .dynamic_symbols()
            .iter()
            .filter(|s| !s.undefined && !s.name.is_empty())
            .map(|s| (s.name.to_string(), s.version.map(str::to_string)))
            .collect(),
        imports: f
            .dynamic_symbols()
            .iter()
            .filter(|s| s.undefined && !s.name.is_empty())
            .map(|s| (s.name.to_string(), s.version.map(str::to_string), s.weak))
            .collect(),
        required_glibc: f.required_glibc(),
        comments: f.comments().to_vec(),
    })
}

/// Per-site memo of parsed VFS objects. Site filesystems are immutable, so
/// the driver shares one cache per site across evaluations (a pure speed
/// memo — it cannot change any answer).
pub type MetaCache = HashMap<String, Option<Arc<Meta>>>;

/// The oracle's view of one evaluation: the site's ground truth plus a
/// private file overlay and `LD_LIBRARY_PATH` model (front = searched
/// first).
struct World<'a> {
    site: &'a Site,
    vfs_meta: &'a mut MetaCache,
    overlay: BTreeMap<String, Arc<Vec<u8>>>,
    overlay_meta: HashMap<String, Option<Arc<Meta>>>,
    ld: Vec<String>,
}

impl<'a> World<'a> {
    fn new(site: &'a Site, vfs_meta: &'a mut MetaCache) -> Self {
        World {
            site,
            vfs_meta,
            overlay: BTreeMap::new(),
            overlay_meta: HashMap::new(),
            ld: Vec::new(),
        }
    }

    /// `module load` effect: stack lib dir, then its compiler's lib dir in
    /// front of it.
    fn load_stack(&mut self, ist: &InstalledStack) {
        self.ld.insert(0, ist.lib_dir());
        if let Some(ic) = self.site.compiler(ist.stack.compiler.family) {
            self.ld.insert(0, ic.lib_dir.clone());
        }
    }

    fn stage(&mut self, path: &str, bytes: Arc<Vec<u8>>) {
        let np = vfs::normalize(path);
        self.overlay_meta.remove(&np);
        self.overlay.insert(np, bytes);
    }

    fn exists(&self, path: &str) -> bool {
        let np = vfs::normalize(path);
        self.overlay.contains_key(&np) || self.site.vfs.exists(&np)
    }

    fn meta_of(&mut self, path: &str) -> Option<Arc<Meta>> {
        let np = vfs::normalize(path);
        if let Some(bytes) = self.overlay.get(&np) {
            if let Some(m) = self.overlay_meta.get(&np) {
                return m.clone();
            }
            let m = parse_meta(bytes).map(Arc::new);
            self.overlay_meta.insert(np, m.clone());
            return m;
        }
        if let Some(m) = self.vfs_meta.get(&np) {
            return m.clone();
        }
        let m = self
            .site
            .vfs
            .read(&np)
            .ok()
            .and_then(|c| parse_meta(c.as_bytes()))
            .map(Arc::new);
        self.vfs_meta.insert(np, m.clone());
        m
    }

    /// Current `LD_LIBRARY_PATH` dirs followed by the loader defaults.
    fn visible_dirs(&self) -> Vec<String> {
        let mut v = self.ld.clone();
        v.extend(self.site.default_lib_dirs().iter().map(|d| d.to_string()));
        v
    }

    fn visible_on_paths(&self, soname: &str) -> bool {
        self.visible_dirs()
            .iter()
            .any(|d| self.exists(&format!("{d}/{soname}")))
    }

    /// Mirror of the BDC's `locate_library`: `locate` (exact basename
    /// among substring hits, existence checked against the *site* VFS
    /// only) → `find` over common roots + `LD_LIBRARY_PATH`.
    fn locate_library(&self, soname: &str) -> Option<String> {
        if self.site.config.locate_present {
            let hits = self.site.vfs.locate(soname);
            if let Some(hit) = hits
                .into_iter()
                .find(|p| p.rsplit('/').next() == Some(soname) && self.site.vfs.exists(p))
            {
                return Some(hit);
            }
        }
        let mut roots: Vec<String> = ["/lib64", "/usr/lib64", "/lib", "/usr/lib", "/opt"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        roots.extend(self.ld.iter().cloned());
        let mut found: Vec<String> = Vec::new();
        for r in &roots {
            found.extend(find_by_name(self.site, r, soname));
        }
        found.sort();
        found.dedup();
        found.into_iter().next()
    }

    /// glibc search-path order for one requesting object: `DT_RPATH` (when
    /// no RUNPATH) → `LD_LIBRARY_PATH` → `DT_RUNPATH` → defaults.
    fn search_order(&self, obj: &Meta) -> Vec<String> {
        let split = |s: &Option<String>| -> Vec<String> {
            s.as_deref()
                .map(|v| {
                    v.split(':')
                        .filter(|d| !d.is_empty())
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut dirs = Vec::new();
        if obj.runpath.is_none() {
            dirs.extend(split(&obj.rpath));
        }
        dirs.extend(self.ld.iter().cloned());
        dirs.extend(split(&obj.runpath));
        dirs.extend(self.site.default_lib_dirs().iter().map(|d| d.to_string()));
        dirs
    }

    fn probe_dir(
        &mut self,
        dir: &str,
        soname: &str,
        class: Class,
        machine: Machine,
    ) -> Option<(String, Arc<Meta>)> {
        let candidate = format!("{}/{soname}", dir.trim_end_matches('/'));
        if !self.exists(&candidate) {
            return None;
        }
        let meta = self.meta_of(&candidate)?;
        (meta.class == class && meta.machine == machine).then_some((candidate, meta))
    }

    /// `ldd`-style walk (LIFO frontier, missing deps recorded not fatal);
    /// `None` when the root is not loadable.
    fn ldd_walk(&mut self, root_path: &str) -> Option<Vec<(String, Option<String>)>> {
        let root_meta = self.meta_of(root_path)?;
        let class = root_meta.class;
        let machine = root_meta.machine;
        let mut results: Vec<(String, Option<String>)> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let mut frontier: Vec<Arc<Meta>> = vec![root_meta];
        while let Some(current) = frontier.pop() {
            for dep in current.needed.clone() {
                if !seen.insert(dep.clone()) {
                    continue;
                }
                let mut found = None;
                for dir in self.search_order(&current) {
                    if let Some(hit) = self.probe_dir(&dir, &dep, class, machine) {
                        found = Some(hit);
                        break;
                    }
                }
                match found {
                    Some((path, meta)) => {
                        results.push((dep, Some(path)));
                        frontier.push(meta);
                    }
                    None => results.push((dep, None)),
                }
            }
        }
        Some(results)
    }

    /// Full load-closure check: BFS `DT_NEEDED` resolution, then verneed
    /// references, then strong symbol bindings.
    fn closure_ok(&mut self, root_path: &str) -> bool {
        let Some(root_meta) = self.meta_of(root_path) else {
            return false;
        };
        let class = root_meta.class;
        let machine = root_meta.machine;
        let mut objects: Vec<Arc<Meta>> = vec![root_meta];
        let mut loaded: HashSet<String> = HashSet::new();
        let mut queue = 0usize;
        while queue < objects.len() {
            let current = objects[queue].clone();
            for dep in current.needed.clone() {
                if loaded.contains(&dep) {
                    continue;
                }
                let mut found = None;
                for dir in self.search_order(&current) {
                    if let Some(hit) = self.probe_dir(&dir, &dep, class, machine) {
                        found = Some(hit);
                        break;
                    }
                }
                match found {
                    Some((_, meta)) => {
                        loaded.insert(dep);
                        objects.push(meta);
                    }
                    None => return false,
                }
            }
            queue += 1;
        }
        for obj in &objects {
            for (file, versions) in &obj.version_refs {
                let Some(provider) = objects
                    .iter()
                    .find(|o| o.soname.as_deref() == Some(file.as_str()))
                else {
                    continue; // tolerated unless a symbol binds to it
                };
                for (name, weak) in versions {
                    if *weak {
                        continue;
                    }
                    if !provider.version_defs.iter().any(|d| d == name) {
                        return false;
                    }
                }
            }
        }
        let mut export_index: HashSet<(&str, Option<&str>)> = HashSet::new();
        let mut unversioned: HashSet<&str> = HashSet::new();
        for obj in &objects {
            for (name, ver) in &obj.exports {
                export_index.insert((name.as_str(), ver.as_deref()));
                unversioned.insert(name.as_str());
            }
        }
        for obj in &objects {
            for (name, ver, weak) in &obj.imports {
                if *weak {
                    continue;
                }
                let satisfied = match ver.as_deref() {
                    Some(v) => export_index.contains(&(name.as_str(), Some(v))),
                    None => unversioned.contains(name.as_str()),
                };
                if !satisfied {
                    return false;
                }
            }
        }
        true
    }

    /// Mirror of `edc::missing_libraries`: `ldd` walk when the tool is
    /// present, else the needed-list + search fallback.
    fn missing_libraries(&mut self, path: &str) -> Vec<String> {
        if self.site.config.ldd_present {
            if let Some(map) = self.ldd_walk(path) {
                return map
                    .into_iter()
                    .filter_map(|(soname, loc)| {
                        if loc.is_some() {
                            return None;
                        }
                        self.locate_library(&soname).is_none().then_some(soname)
                    })
                    .collect();
            }
        }
        let Some(meta) = self.meta_of(path) else {
            return Vec::new();
        };
        meta.needed
            .iter()
            .filter(|so| !self.visible_on_paths(so) && self.locate_library(so).is_none())
            .cloned()
            .collect()
    }

    /// Mirror of `edc::extra_lib_dirs` over the direct needed list.
    fn extra_lib_dirs(&mut self, needed: &[String]) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let visible_dirs = self.visible_dirs();
        for so in needed {
            if is_c_library(so) {
                continue;
            }
            if visible_dirs
                .iter()
                .any(|d| self.exists(&format!("{d}/{so}")))
            {
                continue;
            }
            if let Some(path) = self.locate_library(so) {
                let dir = vfs::dirname(&path).to_string();
                if !out.contains(&dir) && !visible_dirs.contains(&dir) {
                    out.push(dir);
                }
            }
        }
        out
    }
}

/// `find <root> -name <name>` by a scan of every path in the tree, so a
/// fault in the VFS's name index shows up as a divergence instead of being
/// shared by the pipeline and its judge.
fn find_by_name(site: &Site, root: &str, name: &str) -> Vec<String> {
    let root = vfs::normalize(root);
    let prefix = if root == "/" {
        "/".to_string()
    } else {
        format!("{root}/")
    };
    site.vfs
        .all_paths()
        .filter(|p| (p.starts_with(&prefix) || *p == root) && vfs::basename(p) == name)
        .map(str::to_string)
        .collect()
}

fn is_c_library(soname: &str) -> bool {
    soname.starts_with("libc.so") || soname.starts_with("ld-linux") || soname.starts_with("ld.so")
}

fn c_library_compatible(required: Option<&VersionName>, target: Option<&VersionName>) -> bool {
    match (required, target) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(req), Some(t)) => t.cmp_same_prefix(req).map(|o| o.is_ge()).unwrap_or(false),
    }
}

/// Table I: identify the MPI implementation from `DT_NEEDED` sonames.
fn identify_mpi(needed: &[String]) -> Option<MpiImpl> {
    let has = |prefix: &str| needed.iter().any(|n| n.starts_with(prefix));
    if has("libmpich") {
        if has("libibverbs") && has("libibumad") {
            Some(MpiImpl::Mvapich2)
        } else {
            Some(MpiImpl::Mpich2)
        }
    } else if has("libmpi.so") || has("libmpi_f77") || has("libmpi_f90") {
        Some(MpiImpl::OpenMpi)
    } else {
        None
    }
}

/// Which MPI runtime a binary was linked against, from its import table.
fn binary_mpi_impl(meta: &Meta) -> Option<MpiImpl> {
    for (sym, _, _) in &meta.imports {
        for imp in [MpiImpl::OpenMpi, MpiImpl::Mpich2, MpiImpl::Mvapich2] {
            if sym == imp.rt_marker() {
                return Some(imp);
            }
        }
    }
    None
}

/// `(compiler family, exact version)` from `.comment` provenance.
fn compiler_version(comments: &[String]) -> Option<(CompilerFamily, String)> {
    for c in comments {
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

/// Would one launch of `path` under `launcher` succeed? Mirrors the
/// execution model's checks: launcher misconfiguration, hardware, load
/// closure, MPI runtime agreement, FP environment quirks. Fault rates are
/// zero in oracle universes, so one attempt decides.
fn launch_ok(world: &mut World<'_>, path: &str, launcher: &InstalledStack) -> bool {
    if !launcher.functional {
        return false;
    }
    let Some(meta) = world.meta_of(path) else {
        return false;
    };
    if !world.site.config.arch.executes(meta.machine, meta.class) {
        return false;
    }
    if !world.closure_ok(path) {
        return false;
    }
    if let Some(bin_impl) = binary_mpi_impl(&meta) {
        if bin_impl != launcher.stack.mpi {
            return false;
        }
    }
    if let Some((family, version)) = compiler_version(&meta.comments) {
        if world
            .site
            .config
            .fpe_triggers
            .iter()
            .any(|(f, v)| *f == family && *v == version)
        {
            return false;
        }
    }
    true
}

/// Installed stacks in the order the EDC would discover them: Environment
/// Modules → sorted module names (= idents); SoftEnv → database (config)
/// order; neither → filesystem search, deduped by `/opt` leaf, sorted by
/// prefix.
pub fn discovered_order(site: &Site) -> Vec<&InstalledStack> {
    match site.config.env_mgmt {
        EnvMgmt::Modules => {
            let mut v: Vec<&InstalledStack> = site.stacks.iter().collect();
            v.sort_by_key(|i| i.stack.ident());
            v
        }
        EnvMgmt::SoftEnv => site.stacks.iter().collect(),
        EnvMgmt::None => {
            let candidates: Vec<String> = if site.config.locate_present {
                site.vfs.locate("libmpi")
            } else {
                let find = |name: &str| -> Vec<String> {
                    let mut v = find_by_name(site, "/opt", name);
                    v.sort();
                    v.dedup();
                    v
                };
                let mut v = find("libmpi.so.0");
                v.extend(find("libmpich.so.1.2"));
                v
            };
            let mut seen: HashSet<String> = HashSet::new();
            let mut found: Vec<&InstalledStack> = Vec::new();
            for path in candidates {
                let Some(rest) = path.strip_prefix("/opt/") else {
                    continue;
                };
                let Some(leaf) = rest.split('/').next() else {
                    continue;
                };
                if !seen.insert(leaf.to_string()) {
                    continue;
                }
                if let Some(ist) = site
                    .stacks
                    .iter()
                    .find(|i| i.prefix == format!("/opt/{leaf}"))
                {
                    found.push(ist);
                }
            }
            found.sort_by(|a, b| a.prefix.cmp(&b.prefix));
            found
        }
    }
}

/// The naive plan's stack choice: first advertised stack of the matching
/// implementation, preferring one built with the binary's compiler family.
fn naive_plan_stack(
    site: &Site,
    bin_impl: Option<MpiImpl>,
    family: Option<CompilerFamily>,
) -> Option<String> {
    let imp = bin_impl?;
    let candidates: Vec<&InstalledStack> = discovered_order(site)
        .into_iter()
        .filter(|i| i.stack.mpi == imp)
        .collect();
    let preferred = family.and_then(|fam| {
        candidates
            .iter()
            .find(|c| c.stack.compiler.family == fam)
            .copied()
    });
    preferred
        .or_else(|| candidates.first().copied())
        .map(|i| i.stack.ident())
}

/// Mirror of the resolution recursion: per missing soname, decide
/// usability of the bundle copy (ISA, C library, transitive deps), then
/// stage usable copies + their transitive bundle dependencies. Returns the
/// per-outcome staged sonames and whether resolution was complete.
fn resolve_from_bundle(
    world: &mut World<'_>,
    bundle: &SourceBundle,
    missing: &[String],
) -> (Vec<String>, bool) {
    fn library_visible(world: &World<'_>, soname: &str) -> bool {
        world.visible_on_paths(soname) || world.locate_library(soname).is_some()
    }
    fn copy_usable(
        world: &World<'_>,
        bundle: &SourceBundle,
        soname: &str,
        memo: &mut BTreeMap<String, bool>,
        visiting: &mut Vec<String>,
    ) -> bool {
        if let Some(&cached) = memo.get(soname) {
            return cached;
        }
        if visiting.iter().any(|v| v == soname) {
            return true; // cycle: ld.so handles cycles
        }
        let Some(copy) = bundle.libraries.get(soname) else {
            memo.insert(soname.to_string(), false);
            return false;
        };
        let arch = world.site.config.arch;
        if !arch.executes(copy.description.machine, copy.description.class) {
            memo.insert(soname.to_string(), false);
            return false;
        }
        let target_clib = world.site.glibc_version();
        if !c_library_compatible(copy.description.required_glibc.as_ref(), Some(&target_clib)) {
            memo.insert(soname.to_string(), false);
            return false;
        }
        visiting.push(soname.to_string());
        let mut verdict = true;
        for dep in &copy.description.needed {
            if is_c_library(dep) || library_visible(world, dep) {
                continue;
            }
            if !copy_usable(world, bundle, dep, memo, visiting) {
                verdict = false;
                break;
            }
        }
        visiting.pop();
        memo.insert(soname.to_string(), verdict);
        verdict
    }

    let mut memo = BTreeMap::new();
    let mut staged_outcomes: Vec<String> = Vec::new();
    let mut to_stage: Vec<String> = Vec::new();
    let mut complete = true;
    for soname in missing {
        let mut visiting = Vec::new();
        if copy_usable(world, bundle, soname, &mut memo, &mut visiting) {
            staged_outcomes.push(soname.clone());
            to_stage.push(soname.clone());
        } else {
            complete = false;
        }
    }
    let mut staged_set = BTreeSet::new();
    while let Some(soname) = to_stage.pop() {
        if !staged_set.insert(soname.clone()) {
            continue;
        }
        let Some(copy) = bundle.libraries.get(&soname) else {
            continue;
        };
        world.stage(&format!("{STAGING_DIR}/{soname}"), copy.bytes.clone());
        for dep in &copy.description.needed {
            if !is_c_library(dep)
                && !library_visible(world, dep)
                && bundle.libraries.contains_key(dep.as_str())
                && !staged_set.contains(dep.as_str())
            {
                to_stage.push(dep.to_string());
            }
        }
    }
    (staged_outcomes, complete)
}

// ---------------------------------------------------------------------------
// Checker-ensemble mirrors
// ---------------------------------------------------------------------------
//
// Straight-line reimplementations of the `feam-agree` symbol-diff and
// ldd-closure checkers, reading site ground truth directly (no Session,
// no faults — oracle universes are fault-free, so a mirrored inventory is
// never degraded). The only sharing is the `feam-elf` parser, same as the
// rest of the oracle.

/// One installed library as the mirror's inventory sees it.
pub struct InvEntry {
    name: String,
    soname: Option<String>,
    class: Class,
    machine: Machine,
    exports: Vec<(String, Option<String>)>,
    version_defs: Vec<String>,
    needed: Vec<String>,
}

impl InvEntry {
    fn provides(&self, soname: &str) -> bool {
        self.name == soname || self.soname.as_deref() == Some(soname)
    }
}

/// The mirrored site inventory: every ELF under the loader defaults,
/// every installed stack's `lib/` and every compiler runtime directory,
/// deduped in that order (the checkers' published scan order).
pub type CheckerInventory = Vec<InvEntry>;

pub fn checker_inventory(site: &Site) -> CheckerInventory {
    let mut dirs: Vec<String> = site
        .default_lib_dirs()
        .iter()
        .map(|d| d.to_string())
        .collect();
    for ist in &site.stacks {
        dirs.push(ist.lib_dir());
    }
    for ic in &site.compilers {
        dirs.push(ic.lib_dir.clone());
    }
    let mut seen = HashSet::new();
    dirs.retain(|d| seen.insert(d.clone()));

    let mut entries = Vec::new();
    for dir in &dirs {
        let Ok(names) = site.vfs.list_dir(dir) else {
            continue;
        };
        for name in names {
            let Ok(content) = site.vfs.read(&format!("{dir}/{name}")) else {
                continue;
            };
            let bytes = content.as_bytes();
            if bytes.len() < 4 || bytes[..4] != [0x7f, b'E', b'L', b'F'] {
                continue;
            }
            let Ok(f) = LazyElf::parse(bytes) else {
                continue;
            };
            entries.push(InvEntry {
                name,
                soname: f.soname().map(str::to_string),
                class: f.class(),
                machine: f.machine(),
                exports: f
                    .dynamic_symbols()
                    .iter()
                    .filter(|s| !s.undefined && !s.name.is_empty())
                    .map(|s| (s.name.to_string(), s.version.map(str::to_string)))
                    .collect(),
                version_defs: f
                    .version_defs()
                    .iter()
                    .map(|d| d.name.to_string())
                    .collect(),
                needed: f.needed().iter().map(|n| n.to_string()).collect(),
            });
        }
    }
    entries
}

/// Shared preamble of both checker mirrors: `Err` carries the early
/// verdict, `Ok` the parsed metadata with the inventory candidates.
fn checker_preamble<'a>(
    site: &Site,
    image: &[u8],
    inv: &'a CheckerInventory,
) -> Result<(Meta, Vec<&'a InvEntry>), &'static str> {
    let Some(meta) = parse_meta(image) else {
        return Err("unknown");
    };
    if !site.config.arch.executes(meta.machine, meta.class) {
        return Err("not-ready");
    }
    if !meta.is_dynamic {
        return Err("unknown");
    }
    let candidates = inv
        .iter()
        .filter(|e| e.machine == meta.machine && e.class == meta.class)
        .collect();
    Ok((meta, candidates))
}

/// Expected symbol-diff verdict label (`ready` / `not-ready` / `unknown`).
pub fn expect_symdiff(site: &Site, image: &[u8], inv: &CheckerInventory) -> &'static str {
    let (meta, candidates) = match checker_preamble(site, image, inv) {
        Ok(x) => x,
        Err(v) => return v,
    };
    for (file, versions) in &meta.version_refs {
        let providers: Vec<_> = candidates.iter().filter(|e| e.provides(file)).collect();
        if providers.is_empty() {
            continue; // no provider at all: the closure mirror's evidence
        }
        for (name, weak) in versions {
            if *weak {
                continue;
            }
            if !providers
                .iter()
                .any(|p| p.version_defs.iter().any(|d| d == name))
            {
                return "not-ready";
            }
        }
    }
    let mut versioned: HashSet<(&str, &str)> = HashSet::new();
    let mut names: HashSet<&str> = HashSet::new();
    for e in &candidates {
        for (name, ver) in &e.exports {
            names.insert(name.as_str());
            if let Some(v) = ver {
                versioned.insert((name.as_str(), v.as_str()));
            }
        }
    }
    for (name, ver, weak) in &meta.imports {
        if *weak {
            continue;
        }
        let satisfied = match ver.as_deref() {
            Some(v) => versioned.contains(&(name.as_str(), v)),
            None => names.contains(name.as_str()),
        };
        if !satisfied {
            return "not-ready";
        }
    }
    "ready"
}

/// Expected ldd-closure verdict label (`ready` / `not-ready` / `unknown`).
pub fn expect_closure(site: &Site, image: &[u8], inv: &CheckerInventory) -> &'static str {
    let (meta, candidates) = match checker_preamble(site, image, inv) {
        Ok(x) => x,
        Err(v) => return v,
    };
    let mut frontier: Vec<String> = meta.needed.clone();
    let mut seen: HashSet<String> = HashSet::new();
    while let Some(dep) = frontier.pop() {
        if !seen.insert(dep.clone()) {
            continue;
        }
        match candidates.iter().find(|e| e.provides(&dep)) {
            Some(e) => frontier.extend(e.needed.iter().cloned()),
            None => return "not-ready",
        }
    }
    "ready"
}

fn label(ok: bool) -> String {
    if ok { "compatible" } else { "incompatible" }.to_string()
}

fn finish(
    verdicts: Vec<(String, String)>,
    plan_stack: Option<String>,
    mut resolved: Vec<String>,
) -> Expectation {
    resolved.sort();
    let ready = verdicts.iter().any(|(_, l)| l == "compatible")
        && !verdicts.iter().any(|(_, l)| l == "incompatible");
    let degraded = verdicts.iter().any(|(_, l)| l == "unknown");
    let decided = verdicts.iter().filter(|(_, l)| l != "unknown").count();
    let confidence = if verdicts.is_empty() {
        0.0
    } else {
        decided as f64 / verdicts.len() as f64
    };
    Expectation {
        verdicts,
        ready,
        degraded,
        confidence,
        plan_stack,
        resolved,
    }
}

/// Compute the expected evaluation of `image` at `site`.
///
/// `bundle` is the real source phase's output consumed as data (`None` =
/// Basic mode). `phase_seed` must equal the pipeline's `PhaseConfig.seed`
/// so probe synthesis samples the same world. Fault rates in oracle
/// universes are zero by construction.
pub fn expect(
    site: &Site,
    image: &Arc<Vec<u8>>,
    bundle: Option<&SourceBundle>,
    phase_seed: u64,
    mutation: Option<OracleMutation>,
    cache: &mut MetaCache,
) -> Expectation {
    let meta = parse_meta(image).expect("universe binaries are valid ELFs by construction");
    let arch = site.config.arch;
    let target_clib = site.glibc_version();

    let mut verdicts: Vec<(String, String)> = Vec::new();

    // Determinant 1: ISA.
    let isa_ok = arch.executes(meta.machine, meta.class);
    verdicts.push(("Isa".to_string(), label(isa_ok)));

    // Determinant 3 (checked second): C library.
    let mut clib_ok = c_library_compatible(meta.required_glibc.as_ref(), Some(&target_clib));
    if mutation == Some(OracleMutation::InvertCLibraryRule) {
        clib_ok = !clib_ok;
    }
    verdicts.push(("CLibrary".to_string(), label(clib_ok)));

    // Provenance claims stand in where direct evidence is absent — for the
    // naive plan only, never for a hard verdict.
    let prov = meta.provenance.as_ref();
    let prov_family = prov.and_then(|p| p.compiler.as_ref()).map(|c| c.family);
    let prov_mpi = prov
        .and_then(|p| p.mpi_stack.as_ref())
        .map(|m| m.implementation);
    let bin_impl = identify_mpi(&meta.needed);
    let bin_family = compiler_version(&meta.comments)
        .map(|(f, _)| f)
        .or(prov_family);
    let naive = naive_plan_stack(site, bin_impl.or(prov_mpi), bin_family);

    if !isa_ok || !clib_ok {
        return finish(verdicts, naive, Vec::new());
    }

    // Determinant 2: a functioning, compatible MPI stack.
    let Some(bin_impl) = bin_impl else {
        if !meta.is_dynamic {
            // Statically linked: `DT_NEEDED` silence is absence of the
            // channel, not evidence of a serial binary — degrade to
            // unknown; no shared-library dependencies exist to check.
            verdicts.push(("MpiStack".to_string(), "unknown".to_string()));
            verdicts.push(("SharedLibraries".to_string(), "compatible".to_string()));
        } else {
            verdicts.push(("MpiStack".to_string(), "incompatible".to_string()));
        }
        return finish(verdicts, naive, Vec::new());
    };
    let candidates: Vec<&InstalledStack> = discovered_order(site)
        .into_iter()
        .filter(|i| i.stack.mpi == bin_impl)
        .collect();
    if candidates.is_empty() {
        verdicts.push(("MpiStack".to_string(), "incompatible".to_string()));
        return finish(verdicts, naive, Vec::new());
    }

    // (plan stack, resolved sonames, transported failed?)
    let mut best_incomplete: Option<(Option<String>, Vec<String>, bool)> = None;
    for ist in &candidates {
        let mut world = World::new(site, cache);
        world.load_stack(ist);

        // Native hello-world functional test.
        let native_ok = match compile(
            site,
            Some(ist),
            &ProgramSpec::mpi_hello_world(Language::C),
            phase_seed,
        ) {
            Ok(hello) => {
                world.stage(HELLO_NATIVE, hello.image.clone());
                launch_ok(&mut world, HELLO_NATIVE, ist)
            }
            Err(_) => false,
        };
        if !native_ok {
            continue;
        }

        // Determinant 4: shared libraries under this stack.
        world.stage(APP_PATH, image.clone());
        let missing = world.missing_libraries(APP_PATH);
        let extra_dirs = world.extra_lib_dirs(&meta.needed);
        for d in &extra_dirs {
            world.ld.insert(0, d.clone());
        }

        let mut resolved: Vec<String> = Vec::new();
        let mut all_libs_ok = missing.is_empty();
        if !missing.is_empty() {
            if let Some(b) = bundle {
                let (staged, complete) = resolve_from_bundle(&mut world, b, &missing);
                resolved = staged;
                if complete {
                    all_libs_ok = true;
                    world.ld.insert(0, STAGING_DIR.to_string());
                }
            }
        }

        // Extended compatibility test: transported hello world.
        let probe = bundle.and_then(|b| {
            b.hello_world(Language::C)
                .or_else(|| b.hello_worlds.first())
        });
        let transported_ok = probe.map(|p| {
            world.stage(HELLO_TRANSPORTED, p.image.clone());
            launch_ok(&mut world, HELLO_TRANSPORTED, ist)
        });

        let transported_passed = transported_ok.unwrap_or(true);
        if all_libs_ok && transported_passed {
            verdicts.push(("MpiStack".to_string(), "compatible".to_string()));
            verdicts.push(("SharedLibraries".to_string(), "compatible".to_string()));
            return finish(verdicts, Some(ist.stack.ident()), resolved);
        }
        if best_incomplete.is_none() {
            best_incomplete = Some((Some(ist.stack.ident()), resolved, !transported_passed));
        }
    }

    match best_incomplete {
        Some((plan_stack, resolved, transported_failed)) => {
            if transported_failed {
                verdicts.push(("MpiStack".to_string(), "incompatible".to_string()));
            } else {
                verdicts.push(("MpiStack".to_string(), "compatible".to_string()));
                verdicts.push(("SharedLibraries".to_string(), "incompatible".to_string()));
            }
            finish(verdicts, plan_stack, resolved)
        }
        None => {
            verdicts.push(("MpiStack".to_string(), "incompatible".to_string()));
            finish(verdicts, naive, Vec::new())
        }
    }
}
