//! Property-style tests of the loader model's invariants, driven by a
//! deterministic case generator (the registry is unreachable offline, so
//! no proptest; the cases are seeded and reproducible).

use feam_elf::{
    Class, DefinedVersion, ElfSpec, ExportSpec, HostArch, ImportSpec, LazyElf, Machine,
};
use feam_sim::exec::binary_fingerprint;
use feam_sim::loader::{ldd_map, resolve_closure, LoadError};
use feam_sim::rng::{chance, mix};
use feam_sim::site::{OsInfo, Session, Site, SiteConfig};
use feam_sim::toolchain::{Compiler, CompilerFamily};
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
            site.vfs.lookup("/lib64/libm.so.6"),
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
