//! Dynamic-loader model (`ld.so`).
//!
//! Ground truth for "does this binary actually run here" is produced by the
//! same mechanism the real loader uses: resolve the `DT_NEEDED` closure
//! through the search-path order, then check GNU symbol-version references
//! and symbol bindings across the loaded set. Nothing here consults FEAM's
//! prediction logic — the two must be able to disagree, or the paper's
//! accuracy tables would be meaningless.
//!
//! Each image is parsed into an [`ObjectMeta`] once: installed objects
//! when the site is built (the site's metadata cache), any other image
//! once per buffer (a memo keyed by the buffer's allocation). A search
//! path probe of `<dir>/<soname>` is answered from the site's probe memo
//! ([`crate::site::Site::probe`]) unless the session has staged a file in
//! that directory. Callers that have just read and described the root
//! (`tools::ldd`, a launch) hand that metadata to [`ldd_map_from`] /
//! `closure_verdict` instead of having it read again. Symbol binding
//! binary-searches each loaded object's sorted export list.
//!
//! Whole walks are memoized per site too. An `ldd` listing is keyed by
//! the root's `ObjectMeta` allocation and `LD_LIBRARY_PATH`, and a served
//! listing is the stored [`LddListing`] itself, not a copy; a launch's
//! closure verdict also by the root's path, which its errors name. A walk
//! is stored only when the probe memo answered every probe it made as
//! absent or an installed ELF, together with the directories it probed,
//! and an entry serves only a session that stages nothing under any of
//! them. [`resolve_closure`] always walks.
//!
//! These save simulator time only: the answers, the simulated-CPU charges
//! and the fault draws are those of the plain walk. Every memoized probe
//! outcome (absent, installed ELF) is one that reads nothing, so a stored
//! walk read nothing either: it rolled no fault and charged nothing, and
//! serving it skips no fault roll. A walk that read (a staged or non-ELF
//! file, an odd spelling) is never stored.

use crate::exec::binary_fingerprint;
use crate::memo::AllocMemo;
use crate::site::{path_list, DirProbe, Session};
use crate::vfs::normalized;
use feam_elf::{Class, FileKind, LazyElf, Machine, VersionRef};
use std::collections::HashSet;
use std::sync::Arc;

/// Parsed metadata of one ELF object: parsed once per installed image when
/// the site is built, once per buffer for any other image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    pub soname: Option<String>,
    pub needed: Vec<String>,
    pub class: Class,
    pub machine: Machine,
    pub kind: FileKind,
    pub version_refs: Vec<VersionRef>,
    /// Names of versions this object defines.
    pub version_defs: Vec<String>,
    /// (name, version) of every exported (defined) dynamic symbol, sorted
    /// and deduplicated so a binding is a binary search.
    pub exports: Vec<(String, Option<String>)>,
    /// (name, version, weak) of every imported (undefined) dynamic symbol.
    pub imports: Vec<(String, Option<String>, bool)>,
    pub rpath: Option<String>,
    pub runpath: Option<String>,
    pub comments: Vec<String>,
    /// On-disk size in bytes.
    pub size: usize,
    /// [`binary_fingerprint`] of the image's bytes.
    pub fingerprint: u64,
}

impl ObjectMeta {
    /// Extract metadata from an ELF image.
    pub fn parse(bytes: &[u8]) -> feam_elf::Result<Self> {
        let f = LazyElf::parse(bytes)?;
        let mut exports: Vec<(String, Option<String>)> = f
            .dynamic_symbols()
            .iter()
            .filter(|s| !s.undefined && !s.name.is_empty())
            .map(|s| (s.name.to_string(), s.version.map(str::to_string)))
            .collect();
        exports.sort_unstable();
        exports.dedup();
        Ok(ObjectMeta {
            soname: f.soname().map(str::to_string),
            needed: f.needed().iter().map(|s| s.to_string()).collect(),
            class: f.class(),
            machine: f.machine(),
            kind: f.kind(),
            version_refs: f.version_refs().iter().map(|r| r.owned()).collect(),
            version_defs: f
                .version_defs()
                .iter()
                .map(|d| d.name.to_string())
                .collect(),
            exports,
            imports: f
                .dynamic_symbols()
                .iter()
                .filter(|s| s.undefined && !s.name.is_empty())
                .map(|s| (s.name.to_string(), s.version.map(str::to_string), s.weak))
                .collect(),
            rpath: f.rpath().map(str::to_string),
            runpath: f.runpath().map(str::to_string),
            comments: f.comments().to_vec(),
            size: f.size(),
            fingerprint: binary_fingerprint(bytes),
        })
    }

    /// Does this object export `name` at `version`? A reference without a
    /// version binds to the name at any version.
    pub fn exports_symbol(&self, name: &str, version: Option<&str>) -> bool {
        match version {
            Some(v) => self
                .exports
                .binary_search_by(|(n, ev)| (n.as_str(), ev.as_deref()).cmp(&(name, Some(v))))
                .is_ok(),
            None => {
                let i = self.exports.partition_point(|(n, _)| n.as_str() < name);
                self.exports.get(i).is_some_and(|(n, _)| n == name)
            }
        }
    }
}

/// One resolved member of a load closure.
#[derive(Debug, Clone)]
pub struct LoadedObject {
    /// The soname it was resolved for (the root binary uses its path).
    pub request: String,
    /// Filesystem path it resolved to.
    pub path: String,
    pub meta: Arc<ObjectMeta>,
}

/// Why loading failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A `DT_NEEDED` soname was not found on any search path.
    MissingLibrary { soname: String, needed_by: String },
    /// A version reference could not be satisfied by the resolved provider
    /// (`GLIBC_2.12 not defined by libc.so.6` and friends).
    UnresolvedVersion {
        object: String,
        file: String,
        version: String,
    },
    /// A strong undefined symbol was not provided by any loaded object —
    /// the mechanical form of an ABI incompatibility.
    MissingSymbol {
        symbol: String,
        version: Option<String>,
        needed_by: String,
    },
    /// The root file is not a loadable ELF for this request.
    NotLoadable(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::MissingLibrary { soname, needed_by } => {
                write!(
                    f,
                    "{soname}: cannot open shared object file (needed by {needed_by})"
                )
            }
            LoadError::UnresolvedVersion {
                object,
                file,
                version,
            } => {
                write!(
                    f,
                    "{object}: version `{version}' not found (required by {file})"
                )
            }
            LoadError::MissingSymbol {
                symbol,
                version,
                needed_by,
            } => match version {
                Some(v) => write!(f, "{needed_by}: undefined symbol: {symbol}, version {v}"),
                None => write!(f, "{needed_by}: undefined symbol: {symbol}"),
            },
            LoadError::NotLoadable(p) => write!(f, "{p}: cannot execute binary file"),
        }
    }
}

/// A successfully resolved closure.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Root first, then dependencies in BFS order.
    pub objects: Vec<LoadedObject>,
}

impl Closure {
    /// Paths of all loaded objects.
    pub fn paths(&self) -> Vec<&str> {
        self.objects.iter().map(|o| o.path.as_str()).collect()
    }

    /// Find the loaded provider of a soname.
    pub fn provider(&self, soname: &str) -> Option<&LoadedObject> {
        self.objects
            .iter()
            .find(|o| o.meta.soname.as_deref() == Some(soname) || o.request == soname)
    }
}

/// The site's cached metadata for `path`, unless the session's overlay
/// holds a file there (the overlay shadows the site, as for reads).
fn installed_meta(sess: &Session<'_>, path: &str) -> Option<Arc<ObjectMeta>> {
    if sess.staged.contains_key(normalized(path).as_ref()) {
        return None;
    }
    sess.site.meta_for(path)
}

/// The metadata of a read image, parsed once per buffer: the memo is keyed
/// by the buffer's allocation, which the VFS, the overlay and every bundle
/// share.
fn parsed(bytes: &Arc<Vec<u8>>) -> feam_elf::Result<Arc<ObjectMeta>> {
    static PARSED: AllocMemo<Vec<u8>, feam_elf::Result<Arc<ObjectMeta>>> = AllocMemo::new();
    PARSED.get_or_insert_with(bytes, |b| ObjectMeta::parse(b).map(Arc::new))
}

/// Fetch + parse an object at `path` within a session, using the site's
/// metadata cache for installed objects.
fn object_at(sess: &Session<'_>, path: &str) -> Option<Arc<ObjectMeta>> {
    if let Some(m) = installed_meta(sess, path) {
        return Some(m);
    }
    parsed(&sess.read_bytes(path)?).ok()
}

/// Metadata of the object at `path` whose `bytes` the caller has just read
/// through the session: the site's cached entry for an installed object,
/// else the parse of `bytes`. The image is not read again.
pub fn object_read(
    sess: &Session<'_>,
    path: &str,
    bytes: &Arc<Vec<u8>>,
) -> feam_elf::Result<Arc<ObjectMeta>> {
    match installed_meta(sess, path) {
        Some(m) => Ok(m),
        None => parsed(bytes),
    }
}

/// The site's memoized [`DirProbe`] of `<dir>/<name>`, unless the overlay
/// holds a file in `dir` or the spelling is not the normal one; then the
/// caller reads as a loader without the memo would.
fn site_probe(sess: &Session<'_>, dir: &str, name: &str) -> Option<DirProbe> {
    if sess.stages_under(dir) {
        return None;
    }
    sess.site.probe(dir, name)
}

/// Does `<dir>/<name>` exist in the session, overlay or site, following
/// symlinks? The loader-visibility test FEAM's environment discovery uses.
pub fn dir_has(sess: &Session<'_>, dir: &str, name: &str) -> bool {
    match site_probe(sess, dir, name) {
        Some(probe) => !matches!(probe, DirProbe::Absent),
        None => sess.exists(&format!("{dir}/{name}")),
    }
}

/// The directories a walk probed, and whether the site's probe memo
/// answered every probe as absent or an installed ELF. Such a walk read
/// nothing, so it rolled no fault and charged nothing.
struct Probed {
    dirs: Vec<Box<str>>,
    pure: bool,
}

impl Probed {
    fn new() -> Self {
        Probed {
            dirs: Vec::new(),
            pure: true,
        }
    }

    fn saw(&mut self, dir: &str) {
        if !self.dirs.iter().any(|d| **d == *dir) {
            self.dirs.push(dir.into());
        }
    }
}

/// Search one directory for `soname`; returns the path when the file exists
/// there (directly or via symlink) and is a compatible ELF object.
fn probe_dir(
    sess: &Session<'_>,
    dir: &str,
    soname: &str,
    class: Class,
    machine: Machine,
    probed: &mut Probed,
) -> Option<(String, Arc<ObjectMeta>)> {
    let meta = match site_probe(sess, dir, soname) {
        Some(DirProbe::Absent) => {
            probed.saw(dir);
            return None;
        }
        Some(DirProbe::Elf(meta)) => {
            probed.saw(dir);
            meta
        }
        Some(DirProbe::Other) | None => {
            probed.pure = false;
            return read_dir_entry(sess, dir, soname, class, machine);
        }
    };
    (meta.class == class && meta.machine == machine).then(|| (format!("{dir}/{soname}"), meta))
}

/// [`probe_dir`] by reading: the overlay first, else the site path is
/// resolved once and its metadata looked up by the real path, else the
/// file is read and parsed.
fn read_dir_entry(
    sess: &Session<'_>,
    dir: &str,
    soname: &str,
    class: Class,
    machine: Machine,
) -> Option<(String, Arc<ObjectMeta>)> {
    let candidate = format!("{}/{soname}", dir.trim_end_matches('/'));
    let installed = if sess.staged.contains_key(normalized(&candidate).as_ref()) {
        None
    } else {
        let (real, _) = sess.site.vfs().resolved(&candidate)?;
        sess.site.meta_at(&real)
    };
    let meta = match installed {
        Some(m) => m,
        None => parsed(&sess.read_bytes(&candidate)?).ok()?,
    };
    (meta.class == class && meta.machine == machine).then_some((candidate, meta))
}

/// The loader's search-path order for one object (glibc semantics):
/// `DT_RPATH` (when no RUNPATH) → `LD_LIBRARY_PATH` → `DT_RUNPATH` →
/// default directories.
fn search_order<'a>(obj: &'a ObjectMeta, sess: &'a Session<'_>) -> Vec<&'a str> {
    let mut dirs = Vec::new();
    if obj.runpath.is_none() {
        dirs.extend(path_list(obj.rpath.as_deref()));
    }
    dirs.extend(path_list(
        sess.env.get("LD_LIBRARY_PATH").map(String::as_str),
    ));
    dirs.extend(path_list(obj.runpath.as_deref()));
    dirs.extend(sess.site.default_lib_dirs());
    dirs
}

/// The first compatible provider of `soname` along `order`.
fn find_provider(
    sess: &Session<'_>,
    order: &[&str],
    soname: &str,
    class: Class,
    machine: Machine,
    probed: &mut Probed,
) -> Option<(String, Arc<ObjectMeta>)> {
    order
        .iter()
        .find_map(|dir| probe_dir(sess, dir, soname, class, machine, probed))
}

/// Past this many memoized walks of one root, further walks of it are
/// answered without being stored, so odd inputs cannot grow the memo
/// without bound.
const WALKS_PER_ROOT: usize = 64;

/// One memoized walk of a root's load closure.
struct Walk<A> {
    /// `LD_LIBRARY_PATH` the walk ran under.
    ld_library_path: Option<Box<str>>,
    /// The root's path, for answers that name it (a launch's verdict).
    root_path: Option<Box<str>>,
    /// Every directory the walk probed: the entry serves a session that
    /// stages nothing under any of them.
    dirs: Box<[Box<str>]>,
    answer: A,
}

/// Walks of one kind, keyed by the root's [`ObjectMeta`] allocation (see
/// [`AllocMemo`]), then by `LD_LIBRARY_PATH` and the root's path.
type WalkMemo<A> = AllocMemo<ObjectMeta, Vec<Walk<A>>>;

/// An `ldd` listing: soname -> resolved path, `None` for "not found".
/// Shared: the walk memo hands out the stored listing.
pub type LddListing = Arc<[(String, Option<String>)]>;

/// A site's memo of loader walks: `ldd` listings and launch verdicts.
#[derive(Default)]
pub(crate) struct Walks {
    ldd: WalkMemo<LddListing>,
    launch: WalkMemo<Result<(), LoadError>>,
}

impl Walks {
    /// Root allocations held, live or dead, across both kinds of walk.
    pub(crate) fn roots(&self) -> usize {
        self.ldd.len() + self.launch.len()
    }
}

/// `walk` from `root`, answered from `memo` when an entry for the session's
/// `LD_LIBRARY_PATH` (and `root_path`) probed no directory the session
/// stages under. A walk is stored only when it read nothing, so a served
/// answer skips no read, fault roll or charge that walking would make.
fn walk_memoized<A: Clone>(
    memo: &WalkMemo<A>,
    sess: &Session<'_>,
    root: &Arc<ObjectMeta>,
    root_path: Option<&str>,
    walk: impl FnOnce(&mut Probed) -> A,
) -> A {
    let ld_library_path = sess.env.get("LD_LIBRARY_PATH").map(String::as_str);
    let is_key = |w: &Walk<A>| {
        w.ld_library_path.as_deref() == ld_library_path && w.root_path.as_deref() == root_path
    };
    let hit = memo.read(root, |held| {
        let w = held.iter().find(|w| is_key(w))?;
        w.dirs
            .iter()
            .all(|d| !sess.stages_under(d))
            .then(|| w.answer.clone())
    });
    if let Some(answer) = hit {
        return answer;
    }
    let mut probed = Probed::new();
    let answer = walk(&mut probed);
    if probed.pure {
        memo.update(root, |held| {
            if held.len() < WALKS_PER_ROOT && !held.iter().any(is_key) {
                held.push(Walk {
                    ld_library_path: ld_library_path.map(Into::into),
                    root_path: root_path.map(Into::into),
                    dirs: probed.dirs.into(),
                    answer: answer.clone(),
                });
            }
        });
    }
    answer
}

/// Resolve the full load closure of the binary at `root_path`.
///
/// On success, every `DT_NEEDED` was found, every version reference is
/// defined by its provider, and every strong import is exported by some
/// loaded object.
pub fn resolve_closure(sess: &Session<'_>, root_path: &str) -> Result<Closure, LoadError> {
    let root_meta =
        object_at(sess, root_path).ok_or_else(|| LoadError::NotLoadable(root_path.to_string()))?;
    walk_closure(sess, root_path, root_meta, &mut Probed::new())
}

/// A launch's loader verdict on the binary at `root_path`, whose metadata
/// the caller already holds (see [`object_read`]): [`resolve_closure`]'s
/// outcome without the closure, through the site's walk memo.
pub(crate) fn closure_verdict(
    sess: &Session<'_>,
    root_path: &str,
    root_meta: &Arc<ObjectMeta>,
) -> Result<(), LoadError> {
    walk_memoized(
        &sess.site.walks.launch,
        sess,
        root_meta,
        Some(root_path),
        |probed| walk_closure(sess, root_path, Arc::clone(root_meta), probed).map(|_| ()),
    )
}

/// The closure walk behind [`resolve_closure`] and [`closure_verdict`].
fn walk_closure(
    sess: &Session<'_>,
    root_path: &str,
    root_meta: Arc<ObjectMeta>,
    probed: &mut Probed,
) -> Result<Closure, LoadError> {
    let class = root_meta.class;
    let machine = root_meta.machine;

    let mut objects = vec![LoadedObject {
        request: root_path.to_string(),
        path: root_path.to_string(),
        meta: root_meta,
    }];
    let mut loaded: HashSet<String> = HashSet::new(); // sonames
    let mut queue = 0usize;
    while queue < objects.len() {
        let current = Arc::clone(&objects[queue].meta);
        let order = search_order(&current, sess);
        for dep in &current.needed {
            if loaded.contains(dep) {
                continue;
            }
            match find_provider(sess, &order, dep, class, machine, probed) {
                Some((path, meta)) => {
                    loaded.insert(dep.clone());
                    objects.push(LoadedObject {
                        request: dep.clone(),
                        path,
                        meta,
                    });
                }
                None => {
                    return Err(LoadError::MissingLibrary {
                        soname: dep.clone(),
                        needed_by: objects[queue].path.clone(),
                    })
                }
            }
        }
        queue += 1;
    }

    // Version-reference check: each verneed (file, version) must be defined
    // by the loaded provider of that file.
    for obj in &objects {
        for vr in &obj.meta.version_refs {
            let provider = objects
                .iter()
                .find(|o| o.meta.soname.as_deref() == Some(vr.file.as_str()));
            let Some(provider) = provider else {
                // A version ref against a file that was not needed/loaded —
                // glibc tolerates this unless a symbol binds to it; skip.
                continue;
            };
            for v in &vr.versions {
                if v.weak {
                    continue;
                }
                if !provider.meta.version_defs.iter().any(|d| d == &v.name) {
                    return Err(LoadError::UnresolvedVersion {
                        object: obj.path.clone(),
                        file: vr.file.clone(),
                        version: v.name.clone(),
                    });
                }
            }
        }
    }

    // Symbol binding: every strong import must be exported somewhere.
    for obj in &objects {
        for (name, ver, weak) in &obj.meta.imports {
            if *weak {
                continue;
            }
            if !objects
                .iter()
                .any(|o| o.meta.exports_symbol(name, ver.as_deref()))
            {
                return Err(LoadError::MissingSymbol {
                    symbol: name.clone(),
                    version: ver.clone(),
                    needed_by: obj.path.clone(),
                });
            }
        }
    }

    Ok(Closure { objects })
}

/// `ldd`-style listing: soname → resolved path (or None when missing).
/// Unlike [`resolve_closure`], missing dependencies do not abort the walk —
/// this is what the `ldd` emulation and FEAM's missing-library check use.
pub fn ldd_map(sess: &Session<'_>, root_path: &str) -> Result<LddListing, LoadError> {
    let root_meta =
        object_at(sess, root_path).ok_or_else(|| LoadError::NotLoadable(root_path.to_string()))?;
    Ok(ldd_map_from(sess, root_meta))
}

/// [`ldd_map`] for a root whose metadata the caller already holds,
/// through the site's walk memo: a served listing is the stored one.
pub fn ldd_map_from(sess: &Session<'_>, root_meta: Arc<ObjectMeta>) -> LddListing {
    walk_memoized(&sess.site.walks.ldd, sess, &root_meta, None, |probed| {
        walk_ldd(sess, Arc::clone(&root_meta), probed).into()
    })
}

/// The `ldd` walk behind [`ldd_map_from`].
fn walk_ldd(
    sess: &Session<'_>,
    root_meta: Arc<ObjectMeta>,
    probed: &mut Probed,
) -> Vec<(String, Option<String>)> {
    let class = root_meta.class;
    let machine = root_meta.machine;
    let mut results: Vec<(String, Option<String>)> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut frontier: Vec<Arc<ObjectMeta>> = vec![root_meta];
    while let Some(current) = frontier.pop() {
        let order = search_order(&current, sess);
        for dep in &current.needed {
            if !seen.insert(dep.clone()) {
                continue;
            }
            match find_provider(sess, &order, dep, class, machine, probed) {
                Some((path, meta)) => {
                    results.push((dep.clone(), Some(path)));
                    frontier.push(meta);
                }
                None => results.push((dep.clone(), None)),
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{OsInfo, Site, SiteConfig};
    use crate::toolchain::{Compiler, CompilerFamily};
    use feam_elf::{ElfSpec, HostArch, ImportSpec, Machine};

    fn site() -> Site {
        let mut cfg = SiteConfig::new(
            "ld-test",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            11,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        Site::build(cfg)
    }

    fn app(needed: &[&str], imports: Vec<ImportSpec>) -> Arc<Vec<u8>> {
        let mut spec = ElfSpec::executable(Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = needed.iter().map(|s| s.to_string()).collect();
        spec.imports = imports;
        Arc::new(spec.build().unwrap())
    }

    #[test]
    fn resolves_simple_libc_closure() {
        let s = site();
        let mut sess = Session::new(&s);
        let bin = app(
            &["libm.so.6", "libc.so.6"],
            vec![ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5")],
        );
        sess.stage_file("/home/user/a.out", bin);
        let c = resolve_closure(&sess, "/home/user/a.out").unwrap();
        assert!(c.provider("libc.so.6").is_some());
        assert!(c.provider("libm.so.6").is_some());
    }

    #[test]
    fn missing_library_detected() {
        let s = site();
        let mut sess = Session::new(&s);
        let bin = app(&["libmpi.so.0", "libc.so.6"], vec![]);
        sess.stage_file("/home/user/a.out", bin);
        match resolve_closure(&sess, "/home/user/a.out") {
            Err(LoadError::MissingLibrary { soname, .. }) => assert_eq!(soname, "libmpi.so.0"),
            other => panic!("expected MissingLibrary, got {other:?}"),
        }
    }

    #[test]
    fn too_new_glibc_version_ref_fails() {
        let s = site(); // glibc 2.5
        let mut sess = Session::new(&s);
        let bin = app(
            &["libc.so.6"],
            vec![ImportSpec::versioned(
                "__isoc99_sscanf",
                "libc.so.6",
                "GLIBC_2.7",
            )],
        );
        sess.stage_file("/home/user/a.out", bin);
        match resolve_closure(&sess, "/home/user/a.out") {
            Err(LoadError::UnresolvedVersion { version, .. }) => {
                assert_eq!(version, "GLIBC_2.7")
            }
            other => panic!("expected UnresolvedVersion, got {other:?}"),
        }
    }

    #[test]
    fn missing_strong_symbol_is_abi_error() {
        let s = site();
        let mut sess = Session::new(&s);
        // memfrob-of-the-future: unversioned symbol libc does not export.
        let bin = app(
            &["libc.so.6"],
            vec![ImportSpec::plain("__intel_rt_v12", "libc.so.6")],
        );
        sess.stage_file("/home/user/a.out", bin);
        match resolve_closure(&sess, "/home/user/a.out") {
            Err(LoadError::MissingSymbol { symbol, .. }) => {
                assert_eq!(symbol, "__intel_rt_v12")
            }
            other => panic!("expected MissingSymbol, got {other:?}"),
        }
    }

    #[test]
    fn weak_imports_tolerated() {
        let s = site();
        let mut sess = Session::new(&s);
        let bin = app(
            &["libc.so.6"],
            vec![ImportSpec {
                symbol: "__nonexistent_hook".into(),
                file: "libc.so.6".into(),
                version: None,
                weak: true,
            }],
        );
        sess.stage_file("/home/user/a.out", bin);
        assert!(resolve_closure(&sess, "/home/user/a.out").is_ok());
    }

    #[test]
    fn ld_library_path_takes_priority_over_defaults() {
        let s = site();
        let mut sess = Session::new(&s);
        // Stage a shadowing libm copy in a session dir and put it on the path.
        let libm_bytes = sess.read_bytes("/lib64/libm.so.6").unwrap();
        sess.stage_file("/home/user/libs/libm.so.6", libm_bytes);
        crate::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", "/home/user/libs");
        let bin = app(&["libm.so.6", "libc.so.6"], vec![]);
        sess.stage_file("/home/user/a.out", bin);
        let c = resolve_closure(&sess, "/home/user/a.out").unwrap();
        assert_eq!(
            c.provider("libm.so.6").unwrap().path,
            "/home/user/libs/libm.so.6"
        );
    }

    #[test]
    fn ldd_map_lists_missing_without_aborting() {
        let s = site();
        let mut sess = Session::new(&s);
        let bin = app(&["libmpi.so.0", "libm.so.6", "libc.so.6"], vec![]);
        sess.stage_file("/home/user/a.out", bin);
        let map = ldd_map(&sess, "/home/user/a.out").unwrap();
        let missing: Vec<_> = map.iter().filter(|(_, p)| p.is_none()).collect();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].0, "libmpi.so.0");
        // Present libraries resolve with paths.
        assert!(map
            .iter()
            .any(|(n, p)| n == "libc.so.6" && p.as_deref() == Some("/lib64/libc.so.6")));
    }

    #[test]
    fn wrong_class_library_not_picked() {
        let s = site();
        let mut sess = Session::new(&s);
        // Stage a 32-bit impostor earlier on the path.
        let mut spec32 = ElfSpec::shared_library("libm.so.6", Machine::X86, feam_elf::Class::Elf32);
        spec32.exports = vec![feam_elf::ExportSpec::new("sin", None)];
        sess.stage_file(
            "/home/user/libs/libm.so.6",
            Arc::new(spec32.build().unwrap()),
        );
        crate::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", "/home/user/libs");
        let bin = app(&["libm.so.6", "libc.so.6"], vec![]);
        sess.stage_file("/home/user/a.out", bin);
        let c = resolve_closure(&sess, "/home/user/a.out").unwrap();
        // The 64-bit system copy wins because the 32-bit one is skipped.
        assert_eq!(c.provider("libm.so.6").unwrap().path, "/lib64/libm.so.6");
    }

    #[test]
    fn rpath_of_requesting_object_searched_first() {
        let s = site();
        let mut sess = Session::new(&s);
        let libm_bytes = sess.read_bytes("/lib64/libm.so.6").unwrap();
        sess.stage_file("/app/private/libm.so.6", libm_bytes);
        let mut spec = ElfSpec::executable(Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = vec!["libm.so.6".into(), "libc.so.6".into()];
        spec.rpath = Some("/app/private".into());
        sess.stage_file("/app/a.out", Arc::new(spec.build().unwrap()));
        let c = resolve_closure(&sess, "/app/a.out").unwrap();
        assert_eq!(
            c.provider("libm.so.6").unwrap().path,
            "/app/private/libm.so.6"
        );
    }
}
