//! Property-style tests of the loader model's invariants, driven by a
//! deterministic case generator (the registry is unreachable offline, so
//! no proptest; the cases are seeded and reproducible).

use feam_elf::{
    Class, DefinedVersion, ElfSpec, ExportSpec, HostArch, ImportSpec, LazyElf, Machine,
};
use feam_sim::compile::{compile, compile_in_session, ProgramSpec};
use feam_sim::exec::{binary_fingerprint, run_mpi, run_serial, DEFAULT_ATTEMPTS};
use feam_sim::faults::{FaultPlan, FaultRate};
use feam_sim::loader::{dir_has, ldd_map, object_read, resolve_closure, LoadError, ObjectMeta};
use feam_sim::mpi::{MpiImpl, MpiStack, Network};
use feam_sim::rng::{chance, mix};
use feam_sim::site::{OsInfo, Session, Site, SiteConfig};
use feam_sim::toolchain::{Compiler, CompilerFamily, Language};
use feam_sim::tools::{ldd, LddResult};
use feam_sim::vfs::Node;
use std::collections::HashSet;
use std::sync::Arc;

fn site() -> Site {
    let mut cfg = SiteConfig::new(
        "prop-site",
        HostArch::X86_64,
        OsInfo::new("CentOS", "5.6", "2.6.18"),
        "2.5",
        77,
    );
    cfg.compilers = vec![
        Compiler::new(CompilerFamily::Gnu, "4.1.2"),
        Compiler::new(CompilerFamily::Intel, "11.1"),
    ];
    Site::build(cfg)
}

/// Library sonames that exist on the test site.
const PRESENT: &[&str] = &[
    "libc.so.6",
    "libm.so.6",
    "libpthread.so.0",
    "librt.so.1",
    "libdl.so.2",
    "libnsl.so.1",
    "libutil.so.1",
    "libgfortran.so.1",
    "libgcc_s.so.1",
    "libstdc++.so.6",
    "libimf.so",
    "libsvml.so",
];
/// Sonames that do not exist anywhere on it.
const ABSENT: &[&str] = &["libghost.so.1", "libvoid.so.2", "libnothere.so.9"];

/// Tiny deterministic generator: a counter fed through SplitMix64's mixer.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(mix(seed ^ 0x6c6f_6164_6572)) // "loader"
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// `len` picks of indices into a slice of length `n` (repeats allowed,
    /// like `proptest::collection::vec(0..n, ..)`).
    fn picks(&mut self, n: usize, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.range(0, n)).collect()
    }
}

fn binary_with(needed: &[String]) -> Arc<Vec<u8>> {
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = needed.to_vec();
    spec.imports = vec![ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5")];
    Arc::new(spec.build().unwrap())
}

fn session_with(site: &Site, bin: Arc<Vec<u8>>) -> Session<'_> {
    let mut sess = Session::new(site);
    // Make the intel runtime visible too.
    let intel_dir = site
        .compiler(CompilerFamily::Intel)
        .unwrap()
        .lib_dir
        .clone();
    feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", &intel_dir);
    sess.stage_file("/p/bin", bin);
    sess
}

/// resolve_closure succeeds iff every transitively needed soname is
/// present, and ldd_map's missing set agrees.
#[test]
fn closure_and_ldd_agree_on_missing() {
    let site = site();
    for case in 0..48u64 {
        let mut g = Gen::new(case);
        let present_picks = {
            let len = g.range(1, 6);
            g.picks(PRESENT.len(), len)
        };
        let absent_picks = {
            let len = g.range(0, 3);
            g.picks(ABSENT.len(), len)
        };
        let mut needed: Vec<String> = present_picks
            .iter()
            .map(|&i| PRESENT[i].to_string())
            .collect();
        needed.extend(absent_picks.iter().map(|&i| ABSENT[i].to_string()));
        needed.dedup();
        if !needed.iter().any(|n| n == "libc.so.6") {
            needed.push("libc.so.6".to_string());
        }
        let bin = binary_with(&needed);
        let sess = session_with(&site, bin);

        let ldd = ldd_map(&sess, "/p/bin").unwrap();
        let ldd_missing: Vec<&str> = ldd
            .iter()
            .filter(|(_, p)| p.is_none())
            .map(|(n, _)| n.as_str())
            .collect();
        let closure = resolve_closure(&sess, "/p/bin");
        let expect_missing = !absent_picks.is_empty();
        assert_eq!(
            closure.is_err(),
            expect_missing,
            "case {case}: closure: {:?}, ldd missing: {:?}",
            closure.as_ref().err(),
            ldd_missing
        );
        assert_eq!(!ldd_missing.is_empty(), expect_missing, "case {case}");
        // Every reported-missing soname is genuinely from the absent set.
        for m in &ldd_missing {
            assert!(ABSENT.contains(m), "case {case}: unexpectedly missing: {m}");
        }
    }
}

/// A successful closure loads the root plus only resolvable libraries,
/// each exactly once, and always includes libc.
#[test]
fn closure_members_unique_and_include_libc() {
    let site = site();
    for case in 0..48u64 {
        let mut g = Gen::new(case ^ 0xbeef);
        let len = g.range(1, 8);
        let picks = g.picks(PRESENT.len(), len);
        let mut needed: Vec<String> = picks.iter().map(|&i| PRESENT[i].to_string()).collect();
        needed.push("libc.so.6".to_string());
        needed.dedup();
        let bin = binary_with(&needed);
        let sess = session_with(&site, bin);
        let closure = resolve_closure(&sess, "/p/bin").unwrap();
        let mut paths: Vec<&str> = closure.paths();
        let before = paths.len();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), before, "case {case}: no object loaded twice");
        assert!(closure.provider("libc.so.6").is_some(), "case {case}");
    }
}

/// Versions every generated library defines, so version references always
/// resolve and only symbol binding decides.
const VERSIONS: &[Option<&str>] = &[None, Some("PROP_1"), Some("PROP_2")];
const SYMBOLS: &[&str] = &["f", "g", "h", "k"];
const LIBS: &[&str] = &["libpa.so.1", "libpb.so.1", "libpc.so.1"];

/// Symbol binding agrees with a brute-force union over the loaded
/// objects' dynamic symbols, on closures whose libraries export the same
/// name twice, under several versions and unversioned, and whose binary
/// mixes strong and weak imports.
#[test]
fn symbol_binding_matches_brute_force_union() {
    let site = site();
    let mut failures = 0;
    for case in 0..96u64 {
        let mut g = Gen::new(case ^ 0x5359_4d42); // "SYMB"
        let mut sess = Session::new(&site);
        feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", "/p/lib");
        let mut versioned: HashSet<(String, String)> = HashSet::new();
        let mut names: HashSet<String> = HashSet::new();
        for lib in LIBS {
            let mut spec = ElfSpec::shared_library(lib, Machine::X86_64, Class::Elf64);
            spec.defined_versions = ["PROP_1", "PROP_2"]
                .iter()
                .map(|v| DefinedVersion {
                    name: v.to_string(),
                    parents: vec![],
                })
                .collect();
            let n = g.range(0, 7);
            spec.exports = (0..n)
                .map(|_| {
                    let s = SYMBOLS[g.range(0, SYMBOLS.len())];
                    ExportSpec::new(s, VERSIONS[g.range(0, VERSIONS.len())])
                })
                .collect();
            let bytes = spec.build().unwrap();
            for s in LazyElf::parse(&bytes).unwrap().dynamic_symbols().iter() {
                if s.undefined || s.name.is_empty() {
                    continue;
                }
                names.insert(s.name.to_string());
                if let Some(v) = s.version {
                    versioned.insert((s.name.to_string(), v.to_string()));
                }
            }
            sess.stage_file(&format!("/p/lib/{lib}"), Arc::new(bytes));
        }
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = LIBS.iter().map(|l| l.to_string()).collect();
        let n = g.range(1, 6);
        spec.imports = (0..n)
            .map(|_| ImportSpec {
                symbol: SYMBOLS[g.range(0, SYMBOLS.len())].to_string(),
                file: LIBS[g.range(0, LIBS.len())].to_string(),
                version: VERSIONS[g.range(0, VERSIONS.len())].map(str::to_string),
                weak: g.range(0, 4) == 0,
            })
            .collect();
        let bin = spec.build().unwrap();
        let first_unbound = LazyElf::parse(&bin)
            .unwrap()
            .dynamic_symbols()
            .iter()
            .filter(|s| s.undefined && !s.name.is_empty() && !s.weak)
            .find(|s| match s.version {
                Some(v) => !versioned.contains(&(s.name.to_string(), v.to_string())),
                None => !names.contains(s.name),
            })
            .map(|s| (s.name.to_string(), s.version.map(str::to_string)));
        sess.stage_file("/p/bin", Arc::new(bin));
        match (resolve_closure(&sess, "/p/bin"), first_unbound) {
            (Ok(_), None) => {}
            (
                Err(LoadError::MissingSymbol {
                    symbol, version, ..
                }),
                Some(expect),
            ) => {
                assert_eq!((symbol, version), expect, "case {case}");
                failures += 1;
            }
            (got, expect) => panic!("case {case}: loader {got:?}, brute force {expect:?}"),
        }
    }
    // Both verdicts occur, so the comparison covers each.
    assert!(failures > 0 && failures < 96, "{failures} of 96 unbound");
}

/// `tools::ldd`'s flaky draw is the one keyed on `binary_fingerprint` of
/// the bytes it read: for a staged image, for an installed library reached
/// through a symlink, and for a staged image shadowing that installed path.
#[test]
fn ldd_flaky_draw_keys_on_fingerprint_of_bytes_read() {
    let mut seen = [0usize; 2];
    for seed in 0..24u64 {
        let mut cfg = SiteConfig::new(
            "ldd-flaky-prop",
            HostArch::X86_64,
            OsInfo::new("CentOS", "5.6", "2.6.18"),
            "2.5",
            seed,
        );
        cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
        cfg.ldd_flaky_rate = 0.5;
        let site = Site::build(cfg);
        assert!(matches!(
            site.vfs().lookup("/lib64/libm.so.6"),
            Some(Node::Symlink { .. })
        ));
        let mut sess = Session::new(&site);
        let bin = binary_with(&["libm.so.6".to_string(), "libc.so.6".to_string()]);
        sess.stage_file("/p/bin", bin);
        let mut probe = |sess: &Session<'_>, path: &str| {
            let bytes = sess.read_bytes(path).unwrap();
            let fp = binary_fingerprint(&bytes);
            let flaky = chance(seed, &[&format!("{fp:x}"), "ldd-flaky"], 0.5);
            let got = ldd(sess, path);
            assert_eq!(
                got == LddResult::NotRecognized,
                flaky,
                "seed {seed} {path}: {got:?}"
            );
            seen[usize::from(flaky)] += 1;
        };
        probe(&sess, "/p/bin");
        probe(&sess, "/lib64/libm.so.6");
        // A staged copy of another library over the installed link: ldd
        // reads, and draws on, the staged bytes.
        let libc = sess.read_bytes("/lib64/libc.so.6").unwrap();
        sess.stage_file("/lib64/libm.so.6", libc);
        probe(&sess, "/lib64/libm.so.6");
    }
    assert!(seen[0] > 0 && seen[1] > 0, "both draws occur: {seen:?}");
}

/// Directory spellings the overlay cases put on `LD_LIBRARY_PATH` and in
/// `DT_RPATH`/`DT_RUNPATH`: normal ones, odd spellings of the same
/// directories, the root, and directories holding non-ELF files.
const DIRS: &[&str] = &[
    "/lib64",
    "/usr/lib64",
    "/p/lib",
    "/usr//lib64",
    "/usr/lib64/",
    "/opt/../lib64",
    "lib64",
    "/./lib64",
    "/p//lib",
    "/",
    "/etc",
    "/usr/bin",
    "/usr",
    "/proc",
];
/// Names no library has: non-ELF files, a non-ELF stub behind a symlink
/// (the dynamic loader's own name), directories.
const ODD_NAMES: &[&str] = &[
    "redhat-release",
    "gcc",
    "version",
    "ld-linux-x86-64.so.2",
    "lib64",
    "bin",
];

/// One overlay case: a session with a random `LD_LIBRARY_PATH`, random
/// staged files (a library shadowing an installed soname in a searched
/// directory, a wrong-class impostor, a staged copy, a staged non-ELF
/// file, a file in a subdirectory of a searched directory) and a staged
/// binary needing present, absent and odd names through odd paths.
/// Built the same way on any build of [`site`].
fn overlay_case(site: &Site, case: u64) -> (Session<'_>, Vec<String>) {
    let mut g = Gen::new(case ^ 0x4f56_4c59); // "OVLY"
    let mut sess = Session::new(site);
    let dirs: Vec<&str> = (0..g.range(0, 5))
        .map(|_| DIRS[g.range(0, DIRS.len())])
        .collect();
    if !dirs.is_empty() {
        sess.env.insert("LD_LIBRARY_PATH".into(), dirs.join(":"));
    }
    let libc = sess.read_bytes("/lib64/libc.so.6").unwrap();
    let libm = sess.read_bytes("/lib64/libm.so.6").unwrap();
    let mut impostor = ElfSpec::shared_library("libgfortran.so.1", Machine::X86, Class::Elf32);
    impostor.exports = vec![ExportSpec::new("_gfortran_st_write", None)];
    let impostor = Arc::new(impostor.build().unwrap());
    let stagings: [(&str, Arc<Vec<u8>>); 6] = [
        ("/lib64/libm.so.6", libc),
        ("/usr/lib64/libgfortran.so.1", impostor),
        ("/p/lib/libm.so.6", libm.clone()),
        ("/p/lib/libnsl.so.1", Arc::new(b"not an object".to_vec())),
        ("/usr/lib64/sub/libm.so.6", libm),
        ("/etc/gcc", Arc::new(vec![0x7f, b'E', b'L', b'F'])),
    ];
    for (path, bytes) in stagings {
        if g.range(0, 3) == 0 {
            sess.stage_file(path, bytes);
        }
    }
    let mut needed: Vec<String> = vec!["libc.so.6".into()];
    for _ in 0..g.range(1, 6) {
        let name = match g.range(0, 8) {
            0 => ABSENT[g.range(0, ABSENT.len())],
            1 => ODD_NAMES[g.range(0, ODD_NAMES.len())],
            _ => PRESENT[g.range(0, PRESENT.len())],
        };
        needed.push(name.into());
    }
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = needed.clone();
    spec.imports = vec![ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5")];
    let path_list = |g: &mut Gen| {
        let dirs: Vec<&str> = (0..g.range(1, 3))
            .map(|_| DIRS[g.range(0, DIRS.len())])
            .collect();
        dirs.join(":")
    };
    match g.range(0, 3) {
        0 => spec.rpath = Some(path_list(&mut g)),
        1 => spec.runpath = Some(path_list(&mut g)),
        _ => {}
    }
    sess.stage_file("/p/bin", Arc::new(spec.build().unwrap()));
    (sess, needed)
}

/// Everything the loader answers about one overlay case, and whether the
/// closure resolved.
fn loader_answers(sess: &Session<'_>, needed: &[String]) -> (String, bool) {
    let closure = resolve_closure(sess, "/p/bin").map(|c| {
        c.objects
            .iter()
            .map(|o| (o.request.clone(), o.path.clone()))
            .collect::<Vec<_>>()
    });
    let visible: Vec<(&str, &str, bool)> = DIRS
        .iter()
        .chain(sess.site.default_lib_dirs())
        .flat_map(|d| needed.iter().map(move |n| (*d, n.as_str())))
        .map(|(d, n)| (d, n, dir_has(sess, d, n)))
        .collect();
    let resolved = closure.is_ok();
    let answers = format!(
        "ldd {:?}\nmap {:?}\nclosure {closure:?}\nvisible {visible:?}",
        ldd(sess, "/p/bin"),
        ldd_map(sess, "/p/bin"),
    );
    (answers, resolved)
}

/// The site's probe memo changes no answer: on random overlays, `ldd`,
/// `resolve_closure` and the loader-visibility test answer on a site
/// warmed by every earlier case as on a fresh, never-probed build, and
/// the visibility test as the plain `exists` of the joined path.
#[test]
fn probe_memo_answers_as_a_fresh_site_on_random_overlays() {
    let warm = site();
    let mut resolved = 0;
    for case in 0..40u64 {
        let fresh = site();
        let (fresh_sess, needed) = overlay_case(&fresh, case);
        for d in DIRS.iter().chain(fresh.default_lib_dirs()) {
            for n in &needed {
                assert_eq!(
                    dir_has(&fresh_sess, d, n),
                    fresh_sess.exists(&format!("{d}/{n}")),
                    "case {case}: {d} {n}"
                );
            }
        }
        let want = loader_answers(&fresh_sess, &needed);
        let (warm_sess, _) = overlay_case(&warm, case);
        assert_eq!(loader_answers(&warm_sess, &needed), want, "case {case}");
        assert_eq!(
            loader_answers(&warm_sess, &needed),
            want,
            "case {case}, hit"
        );
        resolved += usize::from(want.1);
    }
    // Closures both resolve and fail across the cases.
    assert!(resolved > 0 && resolved < 40, "{resolved} of 40 resolved");
}

/// Dropping a staged buffer and staging different bytes brings back the
/// new bytes' metadata, never the memoized answer of the old buffer.
#[test]
fn staged_metadata_follows_the_bytes_across_buffers() {
    let site = site();
    let mut sess = Session::new(&site);
    for case in 0..64u64 {
        let mut g = Gen::new(case ^ 0x4452_4f50); // "DROP"
        let mut needed: Vec<String> = (0..g.range(0, 6))
            .map(|_| PRESENT[g.range(0, PRESENT.len())].to_string())
            .collect();
        needed.push(format!("libcase{case}.so"));
        let bytes = binary_with(&needed);
        let want = ObjectMeta::parse(&bytes).unwrap();
        // Replacing the staged file drops the previous case's buffer.
        sess.stage_file("/p/bin", bytes);
        let read = sess.read_bytes("/p/bin").unwrap();
        let got = object_read(&sess, "/p/bin", &read).unwrap();
        assert_eq!(*got, want, "case {case}");
        let LddResult::Resolved(map) = ldd(&sess, "/p/bin") else {
            continue;
        };
        assert!(map
            .iter()
            .any(|(n, p)| *n == needed[needed.len() - 1] && p.is_none()));
    }
}

/// The memoized probe compile returns `compile`'s bytes for every
/// standard site, installed stack and language, on the miss and the hit.
#[test]
fn memoized_probe_compile_equals_compile() {
    for site in feam_workloads::sites::standard_sites(42) {
        let sess = Session::with_faults(&site, Arc::new(FaultPlan::none()));
        for ist in &site.stacks {
            for lang in [
                Language::C,
                Language::Cxx,
                Language::Fortran,
                Language::MixedCFortran,
            ] {
                let prog = ProgramSpec::mpi_hello_world(lang);
                let want = compile(&site, Some(ist), &prog, 42).map(|b| b.image);
                for round in ["miss", "hit"] {
                    let got = compile_in_session(&sess, Some(ist), &prog, 42, 1).map(|b| b.image);
                    assert_eq!(got, want, "{} {} {lang:?} {round}", site.name(), ist.prefix);
                }
            }
        }
    }
}

/// A site with one working Open MPI stack, for launches.
fn stack_site() -> Site {
    let mut cfg = SiteConfig::new(
        "prop-stack-site",
        HostArch::X86_64,
        OsInfo::new("CentOS", "5.6", "2.6.18"),
        "2.5",
        78,
    );
    let gnu = Compiler::new(CompilerFamily::Gnu, "4.1.2");
    cfg.compilers = vec![gnu.clone()];
    cfg.stacks = vec![(
        MpiStack::new(MpiImpl::OpenMpi, "1.4", gnu, Network::Ethernet),
        true,
    )];
    Site::build(cfg)
}

/// Probe compiles, `ldd`, closures and launches of the probe under a
/// fault plan: what a transported hello-world test does.
fn faulted_probe_run(site: &Site, plan: &Arc<FaultPlan>) -> (String, u64, f64) {
    let mut sess = Session::with_faults(site, Arc::clone(plan));
    let ist = site.stacks[0].clone();
    sess.load_stack(&ist);
    let mut log = String::new();
    for attempt in 1..=3 {
        for lang in [Language::C, Language::Fortran] {
            let prog = ProgramSpec::mpi_hello_world(lang);
            let built = compile_in_session(&sess, Some(&ist), &prog, 7, attempt);
            log += &format!("{:?}\n", built.as_ref().err());
            let Ok(bin) = built else { continue };
            assert_eq!(
                bin.image,
                compile(site, Some(&ist), &prog, 7).unwrap().image
            );
            sess.stage_file("/home/user/hello", bin.image);
            log += &format!("{:?}\n", ldd(&sess, "/home/user/hello"));
            log += &format!("{:?}\n", resolve_closure(&sess, "/home/user/hello").err());
            let run = run_mpi(&mut sess, "/home/user/hello", &ist, 2, DEFAULT_ATTEMPTS);
            log += &format!("{run:?}\n");
        }
    }
    (log, sess.faults_seen.get(), sess.cpu_seconds)
}

/// Under probe-compile and VFS-read faults, a site whose memos are warm
/// gives the outcomes, injected-fault count and simulated-CPU charge of a
/// fresh build: the compile fault is rolled before the memo is read, a
/// faulted compile is never memoized, and no memoized probe skips a read
/// that could fault.
#[test]
fn faults_and_outcomes_match_a_fresh_site_under_fault_plans() {
    let warm = stack_site();
    faulted_probe_run(&warm, &Arc::new(FaultPlan::none()));
    let mut faulted = 0;
    for case in 0..24u64 {
        let plan = Arc::new(FaultPlan {
            seed: case,
            vfs_read: FaultRate {
                transient: 0.0,
                persistent: 0.15,
            },
            probe_compile: FaultRate {
                transient: 0.3,
                persistent: 0.1,
            },
            ..FaultPlan::none()
        });
        let fresh = faulted_probe_run(&stack_site(), &plan);
        let memoized = faulted_probe_run(&warm, &plan);
        assert_eq!(memoized, fresh, "case {case}");
        faulted += usize::from(fresh.1 > 0);
    }
    assert!(faulted > 0 && faulted < 24, "{faulted} of 24 cases faulted");
}

/// One walk-memo case: an `LD_LIBRARY_PATH`, a binary (one buffer, which
/// every session of the case stages, so they share one root) and the files
/// a staged session adds, several under directories the walk probes.
struct WalkCase {
    ld_library_path: Option<String>,
    bin: Arc<Vec<u8>>,
    stagings: Vec<(&'static str, Arc<Vec<u8>>)>,
}

/// A shared library named `soname` for the site's ISA.
fn library(soname: &str) -> Arc<Vec<u8>> {
    let mut spec = ElfSpec::shared_library(soname, Machine::X86_64, Class::Elf64);
    spec.exports = vec![ExportSpec::new("ghost_fn", None)];
    Arc::new(spec.build().unwrap())
}

fn walk_case(site: &Site, case: u64) -> WalkCase {
    let mut g = Gen::new(case ^ 0x5741_4c4b); // "WALK"
    let dirs: Vec<&str> = (0..g.range(0, 4))
        .map(|_| DIRS[g.range(0, DIRS.len())])
        .collect();
    let ld_library_path = (!dirs.is_empty()).then(|| dirs.join(":"));
    let read = |path: &str| match site.vfs().read(path).unwrap() {
        feam_sim::vfs::Content::Bytes(b) => Arc::clone(b),
        feam_sim::vfs::Content::Text(_) => unreachable!("{path} is an image"),
    };
    let mut impostor = ElfSpec::shared_library("libgfortran.so.1", Machine::X86, Class::Elf32);
    impostor.exports = vec![ExportSpec::new("_gfortran_st_write", None)];
    let candidates: [(&str, Arc<Vec<u8>>); 9] = [
        // Absent sonames appearing in a default and a searched directory.
        ("/usr/lib64/libghost.so.1", library("libghost.so.1")),
        ("/p/lib/libvoid.so.2", library("libvoid.so.2")),
        ("/lib64/libm.so.6", read("/lib64/libc.so.6")),
        (
            "/usr/lib64/libgfortran.so.1",
            Arc::new(impostor.build().unwrap()),
        ),
        ("/p/lib/libm.so.6", read("/lib64/libm.so.6")),
        ("/p/lib/libnsl.so.1", Arc::new(b"not an object".to_vec())),
        ("/usr/lib64/sub/libm.so.6", read("/lib64/libm.so.6")),
        ("/etc/gcc", Arc::new(vec![0x7f, b'E', b'L', b'F'])),
        ("/lib64/libnothere.so.9", library("libnothere.so.9")),
    ];
    let mut stagings: Vec<_> = candidates
        .into_iter()
        .filter(|_| g.range(0, 3) == 0)
        .collect();
    if stagings.is_empty() {
        stagings.push(("/usr/lib64/libghost.so.1", library("libghost.so.1")));
    }
    let mut needed: Vec<String> = vec!["libc.so.6".into()];
    for _ in 0..g.range(1, 6) {
        let name = match g.range(0, 8) {
            0 | 1 => ABSENT[g.range(0, ABSENT.len())],
            2 => ODD_NAMES[g.range(0, ODD_NAMES.len())],
            _ => PRESENT[g.range(0, PRESENT.len())],
        };
        needed.push(name.into());
    }
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = needed;
    spec.imports = vec![ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5")];
    let path_list = |g: &mut Gen| {
        let dirs: Vec<&str> = (0..g.range(1, 3))
            .map(|_| DIRS[g.range(0, DIRS.len())])
            .collect();
        dirs.join(":")
    };
    match g.range(0, 3) {
        0 => spec.rpath = Some(path_list(&mut g)),
        1 => spec.runpath = Some(path_list(&mut g)),
        _ => {}
    }
    WalkCase {
        ld_library_path,
        bin: Arc::new(spec.build().unwrap()),
        stagings,
    }
}

/// `ldd`, the listing and a launch of the case's binary at `site`, with or
/// without the case's stagings, plus the session's injected-fault count
/// and simulated-CPU charge.
fn walk_answers(
    site: &Site,
    c: &WalkCase,
    staged: bool,
    plan: &Arc<FaultPlan>,
) -> (String, u64, f64) {
    let mut sess = Session::with_faults(site, Arc::clone(plan));
    if let Some(dirs) = &c.ld_library_path {
        sess.env.insert("LD_LIBRARY_PATH".into(), dirs.clone());
    }
    sess.stage_file("/p/bin", Arc::clone(&c.bin));
    if staged {
        for (path, bytes) in &c.stagings {
            sess.stage_file(path, Arc::clone(bytes));
        }
    }
    let mut answers = String::new();
    for _ in 0..2 {
        answers += &format!(
            "ldd {:?}\nmap {:?}\nrun {:?}\n",
            ldd(&sess, "/p/bin"),
            ldd_map(&sess, "/p/bin"),
            run_serial(&mut sess, "/p/bin"),
        );
    }
    (answers, sess.faults_seen.get(), sess.cpu_seconds)
}

/// The walk memo changes no answer, injected-fault count or charge: on a
/// site that walked every earlier case, a case's sessions (its stagings
/// applied, then absent, then applied again, so an entry is stored before
/// libraries appear under directories it probed, and a walk that read the
/// overlay meets a session without it) answer as each would on a fresh
/// build.
fn walk_memo_answers_as_a_fresh_site(plan: impl Fn(u64) -> FaultPlan) -> [usize; 2] {
    let warm = site();
    let mut seen = [0usize; 2];
    for case in 0..48u64 {
        let plan = Arc::new(plan(case));
        let c = walk_case(&warm, case);
        let want = [false, true].map(|staged| walk_answers(&site(), &c, staged, &plan));
        for staged in [true, false, true] {
            let got = walk_answers(&warm, &c, staged, &plan);
            assert_eq!(
                got,
                want[usize::from(staged)],
                "case {case}, staged {staged}"
            );
        }
        // Cases where the stagings change what the loader answers.
        seen[usize::from(want[0].0 != want[1].0)] += 1;
    }
    seen
}

#[test]
fn walk_memo_answers_as_a_fresh_site_on_random_overlays() {
    let seen = walk_memo_answers_as_a_fresh_site(|_| FaultPlan::none());
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "stagings both matter and not: {seen:?}"
    );
}

#[test]
fn walk_memo_answers_as_a_fresh_site_under_vfs_read_faults() {
    let seen = walk_memo_answers_as_a_fresh_site(|case| FaultPlan {
        seed: case,
        vfs_read: FaultRate {
            transient: 0.1,
            persistent: 0.1,
        },
        ..FaultPlan::none()
    });
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "stagings both matter and not: {seen:?}"
    );
}

/// A fresh buffer per call cannot grow the walk memo: after thousands of
/// staged buffers, each walked by `ldd` and a launch and then dropped, the
/// site holds a bounded number of roots. (Dead roots go at a later store;
/// a staged root's metadata lives until the per-buffer parse memo purges
/// its dead buffer, so the bound is a few purge marks, not the live count.)
#[test]
fn walk_memo_holds_a_bounded_number_of_roots() {
    let site = site();
    let mut sess = Session::with_faults(&site, Arc::new(FaultPlan::none()));
    let needed = ["libm.so.6".to_string(), "libc.so.6".to_string()];
    let template = binary_with(&needed);
    let buffers = 12_000;
    for _ in 0..buffers {
        sess.stage_file("/p/bin", Arc::new(template.to_vec()));
        assert!(matches!(ldd(&sess, "/p/bin"), LddResult::Resolved(_)));
        assert!(run_serial(&mut sess, "/p/bin").success);
    }
    let held = site.memoized_walk_roots();
    assert!(held > 0, "the walks were stored");
    assert!(
        held <= 4 * 1024,
        "{held} roots held after {buffers} buffers"
    );
}
