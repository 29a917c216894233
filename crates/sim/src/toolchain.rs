//! Compiler families and their runtime shared libraries.
//!
//! The paper's MPI stacks pair an MPI implementation with a compiler (GNU,
//! Intel, or PGI). The compiler choice determines which *runtime* libraries
//! a binary is linked against — `libgfortran`, `libimf`, `libpgf90`, … —
//! and those runtime libraries are one of the two big structural sources of
//! missing-shared-library failures when binaries migrate (the other being
//! MPI libraries themselves).

use crate::rng;
use feam_elf::{DefinedVersion, ExportSpec, ImportSpec};
use serde::Serialize;

/// Compiler family, per Table II's i/g/p annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CompilerFamily {
    Gnu,
    Intel,
    Pgi,
}

impl CompilerFamily {
    /// The single-letter tag Table II uses.
    pub fn letter(self) -> char {
        match self {
            CompilerFamily::Gnu => 'g',
            CompilerFamily::Intel => 'i',
            CompilerFamily::Pgi => 'p',
        }
    }

    /// Human name.
    pub fn name(self) -> &'static str {
        match self {
            CompilerFamily::Gnu => "GNU",
            CompilerFamily::Intel => "Intel",
            CompilerFamily::Pgi => "PGI",
        }
    }

    /// Lower-case tag used in install prefixes (`/opt/openmpi-1.4.3-intel`).
    pub fn tag(self) -> &'static str {
        match self {
            CompilerFamily::Gnu => "gnu",
            CompilerFamily::Intel => "intel",
            CompilerFamily::Pgi => "pgi",
        }
    }

    /// C compiler executable name.
    pub fn cc(self) -> &'static str {
        match self {
            CompilerFamily::Gnu => "gcc",
            CompilerFamily::Intel => "icc",
            CompilerFamily::Pgi => "pgcc",
        }
    }

    /// Fortran compiler executable name.
    pub fn fc(self) -> &'static str {
        match self {
            CompilerFamily::Gnu => "gfortran",
            CompilerFamily::Intel => "ifort",
            CompilerFamily::Pgi => "pgf90",
        }
    }
}

/// A concrete compiler installation, e.g. Intel 11.1 or GNU 4.1.2.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Compiler {
    pub family: CompilerFamily,
    /// Dotted version, e.g. `4.1.2`, `11.1`, `12.0`.
    pub version: String,
}

impl Compiler {
    /// Construct.
    pub fn new(family: CompilerFamily, version: &str) -> Self {
        Compiler {
            family,
            version: version.to_string(),
        }
    }

    /// Major version component.
    pub fn major(&self) -> u32 {
        self.version
            .split('.')
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Minor version component.
    pub fn minor(&self) -> u32 {
        self.version
            .split('.')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Identifier like `intel-11.1` used in paths and module names.
    pub fn ident(&self) -> String {
        format!("{}-{}", self.family.tag(), self.version)
    }

    /// The `.comment` provenance string this compiler embeds in binaries,
    /// matching what `readelf -p .comment` shows on real systems.
    pub fn comment_string(&self, distro_hint: &str) -> String {
        match self.family {
            CompilerFamily::Gnu => {
                format!(
                    "GCC: (GNU) {} 20080704 ({} {}-50)",
                    self.version, distro_hint, self.version
                )
            }
            CompilerFamily::Intel => format!(
                "Intel(R) C Intel(R) 64 Compiler Professional, Version {} Build 20100414",
                self.version
            ),
            CompilerFamily::Pgi => {
                format!(
                    "PGI Compilers and Tools pgcc {}-0 64-bit target",
                    self.version
                )
            }
        }
    }
}

/// Source language of a program; drives which runtime libraries `mpicc` /
/// `mpif90` pull in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Language {
    C,
    /// C++ adds `libstdc++`.
    Cxx,
    Fortran,
    /// Mixed C + Fortran (several NPB and SPEC codes).
    MixedCFortran,
}

impl Language {
    /// Does this language need the Fortran runtime?
    pub fn needs_fortran_rt(self) -> bool {
        matches!(self, Language::Fortran | Language::MixedCFortran)
    }

    /// Does this language need the C++ runtime?
    pub fn needs_cxx_rt(self) -> bool {
        matches!(self, Language::Cxx)
    }
}

/// The ABI marker symbol a compiler runtime of `major` exports and every
/// binary built by it imports. Newer runtimes re-export all older markers
/// (backwards compatibility); older runtimes lack newer markers, which is
/// the mechanical form of the paper's "ABI incompatibilities in shared
/// libraries" failure class.
pub fn rt_marker(family: CompilerFamily, major: u32) -> String {
    match family {
        CompilerFamily::Gnu => format!("__gnu_rt_v{major}"),
        CompilerFamily::Intel => format!("__intel_rt_v{major}"),
        CompilerFamily::Pgi => format!("__pgi_rt_v{major}"),
    }
}

/// The GLIBCXX symbol-version ladder: (`GLIBCXX_3.4.x` max level) exported
/// by `libstdc++.so.6` as shipped with each GCC 4.x minor.
pub fn glibcxx_max_for_gcc(gcc: &Compiler) -> u32 {
    debug_assert_eq!(gcc.family, CompilerFamily::Gnu);
    match (gcc.major(), gcc.minor()) {
        (4, 1) => 8,
        (4, 2) => 9,
        (4, 3) => 10,
        (4, 4) => 13,
        (4, 5) => 14,
        (m, _) if m >= 4 => 14,
        _ => 0, // gcc 3.x ships libstdc++.so.5, no GLIBCXX_3.4 ladder
    }
}

/// The Fortran runtime soname shipped by a GNU compiler version.
pub fn gnu_fortran_soname(gcc: &Compiler) -> &'static str {
    if gcc.major() >= 4 {
        if gcc.minor() >= 4 || gcc.major() > 4 {
            "libgfortran.so.3"
        } else {
            "libgfortran.so.1"
        }
    } else {
        "libg2c.so.0"
    }
}

/// The C++ runtime soname shipped by a GNU compiler version.
pub fn gnu_cxx_soname(gcc: &Compiler) -> &'static str {
    if gcc.major() >= 4 {
        "libstdc++.so.6"
    } else {
        "libstdc++.so.5"
    }
}

/// Blueprint of one shared library to synthesize and install at a site.
#[derive(Debug, Clone)]
pub struct LibraryBlueprint {
    /// `DT_SONAME`, e.g. `libgfortran.so.1`.
    pub soname: String,
    /// Real file name, e.g. `libgfortran.so.1.0.0`.
    pub filename: String,
    /// Additional symlink names pointing at the real file (dev links).
    pub links: Vec<String>,
    /// Exported symbols.
    pub exports: Vec<ExportSpec>,
    /// Version definitions beyond those implied by exports.
    pub defined_versions: Vec<DefinedVersion>,
    /// `DT_NEEDED` of the library itself.
    pub needed: Vec<String>,
    /// Imported symbols of the library itself (its own glibc needs, …).
    pub imports: Vec<ImportSpec>,
    /// `.comment` strings.
    pub comments: Vec<String>,
    /// Synthetic code size in bytes — drives bundle-size statistics.
    pub size: usize,
}

impl LibraryBlueprint {
    /// Minimal blueprint with the dev-link list derived from the soname.
    pub fn new(soname: &str, filename: &str, size: usize) -> Self {
        let mut links = Vec::new();
        if filename != soname {
            links.push(soname.to_string());
        }
        // Also provide the unversioned dev link (`libfoo.so`).
        if let Some(idx) = soname.find(".so") {
            let dev = format!("{}.so", &soname[..idx]);
            if dev != soname && dev != filename {
                links.push(dev);
            }
        }
        LibraryBlueprint {
            soname: soname.to_string(),
            filename: filename.to_string(),
            links,
            exports: Vec::new(),
            defined_versions: Vec::new(),
            needed: Vec::new(),
            imports: Vec::new(),
            comments: Vec::new(),
            size,
        }
    }
}

/// Runtime-library blueprints for one compiler installation. `glibc_import`
/// is the symbol version the runtime itself was built against — copies of a
/// runtime built on a new-glibc site are unusable on old-glibc sites, the
/// paper's main resolution-failure mechanism.
pub fn runtime_blueprints(
    compiler: &Compiler,
    glibc_import: &str,
    seed: u64,
) -> Vec<LibraryBlueprint> {
    let mut out = Vec::new();
    // Runtimes are backward compatible: a runtime of major M exports the
    // marker of every major ≤ M. Version skew in the *other* direction
    // (new binaries, old runtime) appears as missing version-specific
    // sonames (libirng, libiomp5, libpgmp, the libgfortran ladder), which
    // is how it manifests in the field — and what FEAM's resolution model
    // can actually fix.
    let marker_exports: Vec<ExportSpec> = (1..=compiler.major())
        .map(|m| ExportSpec::new(&rt_marker(compiler.family, m), None))
        .collect();
    let glibc_imp = |sym: &str| ImportSpec::versioned(sym, "libc.so.6", glibc_import);
    let sized = |base: usize, tag: &str| -> usize {
        // Deterministic ±25% jitter so library sizes look organic.
        let h = rng::hash_parts(seed, &[&compiler.ident(), tag]);
        base + (rng::unit_f64(h) * base as f64 * 0.5) as usize - base / 4
    };
    match compiler.family {
        CompilerFamily::Gnu => {
            let mut gcc_s =
                LibraryBlueprint::new("libgcc_s.so.1", "libgcc_s.so.1", sized(200_000, "gcc_s"));
            gcc_s.exports = vec![
                ExportSpec::new("__udivdi3", Some("GCC_3.0")),
                ExportSpec::new("_Unwind_Resume", Some("GCC_3.0")),
            ];
            gcc_s.defined_versions = vec![DefinedVersion {
                name: "GCC_3.0".into(),
                parents: vec![],
            }];
            gcc_s.imports = vec![glibc_imp("abort")];
            out.push(gcc_s);

            let fort = gnu_fortran_soname(compiler);
            let mut f =
                LibraryBlueprint::new(fort, &format!("{fort}.0.0"), sized(2_400_000, "fortran"));
            f.exports = vec![
                ExportSpec::new("_gfortran_st_write", None),
                ExportSpec::new("_gfortran_st_read", None),
                ExportSpec::new("_gfortran_transfer_real", None),
                ExportSpec::new("_gfortran_stop_numeric", None),
            ];
            f.exports.extend(marker_exports.clone());
            f.needed = vec![
                "libm.so.6".into(),
                "libgcc_s.so.1".into(),
                "libc.so.6".into(),
            ];
            f.imports = vec![glibc_imp("memcpy")];
            out.push(f);

            let cxx = gnu_cxx_soname(compiler);
            let mut c = LibraryBlueprint::new(cxx, &format!("{cxx}.0.13"), sized(2_100_000, "cxx"));
            c.exports = vec![
                ExportSpec::new("_ZNSt8ios_base4InitC1Ev", Some("GLIBCXX_3.4")),
                ExportSpec::new("_Znwm", Some("GLIBCXX_3.4")),
            ];
            // The GLIBCXX version ladder up to this GCC's level.
            let maxv = glibcxx_max_for_gcc(compiler);
            let mut parents = Vec::new();
            c.defined_versions.push(DefinedVersion {
                name: "GLIBCXX_3.4".into(),
                parents: vec![],
            });
            parents.push("GLIBCXX_3.4".to_string());
            for v in 1..=maxv {
                c.defined_versions.push(DefinedVersion {
                    name: format!("GLIBCXX_3.4.{v}"),
                    parents: vec![parents.last().expect("non-empty").clone()],
                });
                parents.push(format!("GLIBCXX_3.4.{v}"));
            }
            c.needed = vec![
                "libm.so.6".into(),
                "libgcc_s.so.1".into(),
                "libc.so.6".into(),
            ];
            c.imports = vec![glibc_imp("memcpy")];
            out.push(c);
        }
        CompilerFamily::Intel => {
            let mut imf = LibraryBlueprint::new("libimf.so", "libimf.so", sized(5_200_000, "imf"));
            imf.exports = vec![ExportSpec::new("exp", None), ExportSpec::new("pow", None)];
            imf.exports.extend(marker_exports.clone());
            imf.needed = vec!["libc.so.6".into()];
            imf.imports = vec![glibc_imp("memcpy")];
            out.push(imf);

            let mut svml =
                LibraryBlueprint::new("libsvml.so", "libsvml.so", sized(6_800_000, "svml"));
            svml.exports = vec![ExportSpec::new("__svml_sin2", None)];
            svml.exports.extend(marker_exports.clone());
            svml.needed = vec!["libc.so.6".into()];
            svml.imports = vec![glibc_imp("memcpy")];
            out.push(svml);

            let mut intlc =
                LibraryBlueprint::new("libintlc.so.5", "libintlc.so.5", sized(400_000, "intlc"));
            intlc.exports = vec![ExportSpec::new("_intel_fast_memcpy", None)];
            intlc.exports.extend(marker_exports.clone());
            intlc.needed = vec!["libc.so.6".into()];
            intlc.imports = vec![glibc_imp("memcpy")];
            out.push(intlc);

            let mut ifcore = LibraryBlueprint::new(
                "libifcore.so.5",
                "libifcore.so.5",
                sized(3_700_000, "ifcore"),
            );
            ifcore.exports = vec![
                ExportSpec::new("for_write_seq_lis", None),
                ExportSpec::new("for_read_seq_lis", None),
                ExportSpec::new("for_stop_core", None),
            ];
            ifcore.exports.extend(marker_exports.clone());
            ifcore.needed = vec![
                "libimf.so".into(),
                "libintlc.so.5".into(),
                "libc.so.6".into(),
            ];
            ifcore.imports = vec![glibc_imp("memcpy")];
            out.push(ifcore);

            let mut ifport =
                LibraryBlueprint::new("libifport.so.5", "libifport.so.5", sized(800_000, "ifport"));
            ifport.exports = vec![ExportSpec::new("for_getcwd", None)];
            ifport.exports.extend(marker_exports.clone());
            ifport.needed = vec!["libifcore.so.5".into(), "libc.so.6".into()];
            ifport.imports = vec![glibc_imp("memcpy")];
            out.push(ifport);

            for soname in intel_versioned_sonames(compiler.major()) {
                let mut b = LibraryBlueprint::new(soname, soname, sized(1_500_000, soname));
                b.exports = vec![ExportSpec::new(
                    &format!(
                        "{}_entry",
                        soname.trim_start_matches("lib").trim_end_matches(".so")
                    ),
                    None,
                )];
                b.exports.extend(marker_exports.clone());
                b.needed = vec!["libc.so.6".into()];
                b.imports = vec![glibc_imp("memcpy")];
                out.push(b);
            }
        }
        CompilerFamily::Pgi => {
            for (soname, syms, base, tag) in [
                (
                    "libpgc.so",
                    vec!["__c_mzero8", "__c_mcopy8"],
                    900_000usize,
                    "pgc",
                ),
                (
                    "libpgf90.so",
                    vec!["pgf90_alloc", "pgf90_str_cpy"],
                    2_000_000,
                    "pgf90",
                ),
                (
                    "libpgf90rtl.so",
                    vec!["f90io_open", "f90io_ldw"],
                    700_000,
                    "pgf90rtl",
                ),
                (
                    "libpgftnrtl.so",
                    vec!["ftn_allocate", "ftn_stop"],
                    600_000,
                    "pgftnrtl",
                ),
            ] {
                let mut b = LibraryBlueprint::new(soname, soname, sized(base, tag));
                b.exports = syms.iter().map(|s| ExportSpec::new(s, None)).collect();
                b.exports.extend(marker_exports.clone());
                b.needed = vec!["libm.so.6".into(), "libc.so.6".into()];
                b.imports = vec![glibc_imp("memcpy")];
                out.push(b);
            }
            for soname in pgi_versioned_sonames(compiler.major()) {
                let mut b = LibraryBlueprint::new(soname, soname, sized(1_100_000, soname));
                b.exports = vec![ExportSpec::new("_mp_init", None)];
                b.exports.extend(marker_exports.clone());
                b.needed = vec!["libc.so.6".into()];
                b.imports = vec![glibc_imp("memcpy")];
                out.push(b);
            }
        }
    }
    out
}

/// The version-specific extra runtime sonames an Intel compiler of a given
/// major ships (and its binaries link): the OpenMP runtime changed name at
/// 11 (libguide → libiomp5) and 12 added the RNG library. These sonames are
/// what makes cross-version Intel migration fail with *missing libraries*
/// rather than symbol errors.
pub fn intel_versioned_sonames(major: u32) -> Vec<&'static str> {
    let mut v = Vec::new();
    if major >= 11 {
        v.push("libiomp5.so");
    } else {
        v.push("libguide.so");
    }
    if major >= 12 {
        v.push("libirng.so");
    }
    v
}

/// PGI's version-specific extra runtime sonames (the OpenMP runtime
/// appeared as its own library in PGI ≥ 10).
pub fn pgi_versioned_sonames(major: u32) -> Vec<&'static str> {
    if major >= 10 {
        vec!["libpgmp.so"]
    } else {
        vec![]
    }
}

/// Which runtime sonames a binary in `language` built by `compiler` links
/// against (the `DT_NEEDED` contribution of the compiler).
pub fn runtime_needed(compiler: &Compiler, language: Language) -> Vec<String> {
    let mut out = Vec::new();
    match compiler.family {
        CompilerFamily::Gnu => {
            if language.needs_fortran_rt() {
                out.push(gnu_fortran_soname(compiler).to_string());
            }
            if language.needs_cxx_rt() {
                out.push(gnu_cxx_soname(compiler).to_string());
            }
            out.push("libgcc_s.so.1".to_string());
        }
        CompilerFamily::Intel => {
            if language.needs_fortran_rt() {
                out.push("libifcore.so.5".to_string());
                out.push("libifport.so.5".to_string());
            }
            if language.needs_cxx_rt() {
                // Intel C++ reuses the system GCC's libstdc++; callers add
                // the site-appropriate soname.
            }
            out.push("libimf.so".to_string());
            out.push("libsvml.so".to_string());
            out.push("libintlc.so.5".to_string());
            out.extend(
                intel_versioned_sonames(compiler.major())
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        CompilerFamily::Pgi => {
            if language.needs_fortran_rt() {
                out.push("libpgf90.so".to_string());
                out.push("libpgf90rtl.so".to_string());
                out.push("libpgftnrtl.so".to_string());
            }
            out.push("libpgc.so".to_string());
            out.extend(
                pgi_versioned_sonames(compiler.major())
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiler_version_parts() {
        let c = Compiler::new(CompilerFamily::Intel, "11.1");
        assert_eq!(c.major(), 11);
        assert_eq!(c.minor(), 1);
        assert_eq!(c.ident(), "intel-11.1");
    }

    #[test]
    fn gnu_fortran_soname_ladder() {
        assert_eq!(
            gnu_fortran_soname(&Compiler::new(CompilerFamily::Gnu, "3.4.6")),
            "libg2c.so.0"
        );
        assert_eq!(
            gnu_fortran_soname(&Compiler::new(CompilerFamily::Gnu, "4.1.2")),
            "libgfortran.so.1"
        );
        assert_eq!(
            gnu_fortran_soname(&Compiler::new(CompilerFamily::Gnu, "4.4.5")),
            "libgfortran.so.3"
        );
    }

    #[test]
    fn glibcxx_ladder_grows_with_gcc() {
        let g41 = Compiler::new(CompilerFamily::Gnu, "4.1.2");
        let g44 = Compiler::new(CompilerFamily::Gnu, "4.4.5");
        assert!(glibcxx_max_for_gcc(&g41) < glibcxx_max_for_gcc(&g44));
    }

    #[test]
    fn newer_runtime_exports_all_older_markers() {
        let intel12 = Compiler::new(CompilerFamily::Intel, "12.0");
        let bps = runtime_blueprints(&intel12, "GLIBC_2.2.5", 1);
        let imf = bps.iter().find(|b| b.soname == "libimf.so").unwrap();
        for m in 1..=12 {
            let marker = rt_marker(CompilerFamily::Intel, m);
            assert!(
                imf.exports.iter().any(|e| e.symbol == marker),
                "missing marker {marker}"
            );
        }
    }

    #[test]
    fn older_runtime_lacks_newer_markers() {
        let intel10 = Compiler::new(CompilerFamily::Intel, "10.1");
        let bps = runtime_blueprints(&intel10, "GLIBC_2.2.5", 1);
        let imf = bps.iter().find(|b| b.soname == "libimf.so").unwrap();
        let v12 = rt_marker(CompilerFamily::Intel, 12);
        assert!(!imf.exports.iter().any(|e| e.symbol == v12));
    }

    #[test]
    fn runtime_needed_depends_on_language() {
        let g44 = Compiler::new(CompilerFamily::Gnu, "4.4.5");
        let c = runtime_needed(&g44, Language::C);
        let f = runtime_needed(&g44, Language::Fortran);
        let x = runtime_needed(&g44, Language::Cxx);
        assert!(!c.contains(&"libgfortran.so.3".to_string()));
        assert!(f.contains(&"libgfortran.so.3".to_string()));
        assert!(x.contains(&"libstdc++.so.6".to_string()));
    }

    #[test]
    fn blueprint_dev_links() {
        let b = LibraryBlueprint::new("libgfortran.so.1", "libgfortran.so.1.0.0", 100);
        assert!(b.links.contains(&"libgfortran.so.1".to_string()));
        assert!(b.links.contains(&"libgfortran.so".to_string()));
        let same = LibraryBlueprint::new("libimf.so", "libimf.so", 100);
        assert!(same.links.is_empty());
    }

    #[test]
    fn comment_strings_identify_family() {
        assert!(Compiler::new(CompilerFamily::Gnu, "4.1.2")
            .comment_string("Red Hat")
            .starts_with("GCC:"));
        assert!(Compiler::new(CompilerFamily::Intel, "11.1")
            .comment_string("x")
            .starts_with("Intel(R)"));
        assert!(Compiler::new(CompilerFamily::Pgi, "10.9")
            .comment_string("x")
            .starts_with("PGI"));
    }
}
