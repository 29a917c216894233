//! The simulated toolchain: "compiling" a program at a site with an MPI
//! stack produces a genuine ELF binary whose link-level footprint reflects
//! that environment.
//!
//! This is where the evaluation's test-set binaries come from, and where
//! FEAM compiles its MPI "hello world" probes at target sites. The
//! generated binary carries:
//!
//! * `DT_NEEDED` for the stack's MPI libraries, the compiler's runtime
//!   libraries, and the glibc family,
//! * versioned glibc imports sampled from the site's symbol catalogue (so
//!   the *required C library version* is a property of where and how the
//!   binary was built, exactly as in the field),
//! * the MPI implementation's runtime marker plus — sometimes — the exact
//!   ABI marker of the stack's version (the paper's "1.4-built binaries
//!   run on 1.3 in some instances but not others"),
//! * compiler runtime ABI markers and, for C++, a sampled GLIBCXX
//!   requirement,
//! * a `.comment` section identifying the compiler.

use crate::libc;
use crate::mpi::MpiImpl;
use crate::rng;
use crate::site::{InstalledStack, Site};
use crate::stamp;
use crate::toolchain::{
    glibcxx_max_for_gcc, gnu_cxx_soname, rt_marker, runtime_needed, CompilerFamily, Language,
};
use feam_elf::{strip_section_headers, Class, ElfSpec, ImportSpec, Machine};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How a binary is packaged — the hostile-binary axes of the provenance
/// evaluation. `Normal` is a cooperative dynamic executable; the others
/// progressively remove direct evidence channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryVariant {
    /// Dynamic executable with full section headers and `.comment`.
    Normal,
    /// `strip`ped: section headers gone, so `.comment` is unreachable;
    /// `DT_NEEDED` and dynamic symbols survive through `PT_DYNAMIC`.
    Stripped,
    /// Statically linked: no dynamic section, symbols or version tables
    /// at all. `.comment` survives; the MPI runtime is recoverable only
    /// from code bytes.
    Static,
    /// Cross-compiled for a foreign ISA; the cross toolchain's packaging
    /// drops the `.comment` strings.
    Cross,
}

impl BinaryVariant {
    /// All variants, `Normal` first.
    pub const ALL: [BinaryVariant; 4] = [
        BinaryVariant::Normal,
        BinaryVariant::Stripped,
        BinaryVariant::Static,
        BinaryVariant::Cross,
    ];

    /// Short lowercase tag for identities and reports.
    pub fn tag(self) -> &'static str {
        match self {
            BinaryVariant::Normal => "normal",
            BinaryVariant::Stripped => "stripped",
            BinaryVariant::Static => "static",
            BinaryVariant::Cross => "cross",
        }
    }
}

/// The foreign target a cross build aims at from a given native machine:
/// a same-word-size ISA the testbed actually fields.
fn cross_target(native: Machine) -> (Machine, Class) {
    match native {
        Machine::Ppc64 | Machine::Ia64 | Machine::Aarch64 => (Machine::X86_64, Class::Elf64),
        Machine::X86 | Machine::Ppc => (
            if native == Machine::X86 {
                Machine::Ppc
            } else {
                Machine::X86
            },
            Class::Elf32,
        ),
        _ => (Machine::Ppc64, Class::Elf64),
    }
}

/// A program to compile (a benchmark model or a hello-world probe).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramSpec {
    /// Name, e.g. `bt.A.4` or `104.milc`.
    pub name: String,
    pub language: Language,
    /// Links MPI libraries (hello worlds and all benchmarks do; the EDC's
    /// serial probes do not).
    pub uses_mpi: bool,
    /// Probability that each newer-than-baseline glibc symbol available at
    /// the build site gets used (0 = maximally portable binaries).
    pub glibc_appetite: f64,
    /// Probability of importing the stack's exact-version MPI ABI marker.
    pub mpi_abi_marker_prob: f64,
    /// Synthetic code size in bytes.
    pub text_size: usize,
}

impl ProgramSpec {
    /// A typical application program.
    pub fn new(name: &str, language: Language) -> Self {
        ProgramSpec {
            name: name.into(),
            language,
            uses_mpi: true,
            glibc_appetite: 0.25,
            mpi_abi_marker_prob: 1.0,
            text_size: 256 * 1024,
        }
    }

    /// The MPI "hello world" probe FEAM compiles and runs to test stacks.
    /// Its link footprint is deterministic and matches any application
    /// built with the same stack — baseline MPI symbols, the stack's
    /// major.minor ABI marker, and the compiler's runtime marker — so a
    /// transported hello world faithfully represents its build stack
    /// (§VI.C: the transported tests "were able to detect floating point
    /// errors and ABI incompatibilities in shared libraries").
    pub fn mpi_hello_world(language: Language) -> Self {
        ProgramSpec {
            name: format!("hello_mpi_{:?}", language).to_lowercase(),
            language,
            uses_mpi: true,
            glibc_appetite: 0.0,
            mpi_abi_marker_prob: 1.0,
            text_size: 8 * 1024,
        }
    }

    /// A serial probe (used when checking compilers without MPI).
    pub fn serial_hello_world() -> Self {
        ProgramSpec {
            name: "hello_serial".into(),
            language: Language::C,
            uses_mpi: false,
            glibc_appetite: 0.0,
            mpi_abi_marker_prob: 0.0,
            text_size: 4 * 1024,
        }
    }
}

/// A binary produced by [`compile`], with its build provenance.
#[derive(Debug, Clone)]
pub struct CompiledBinary {
    /// The ELF image.
    pub image: Arc<Vec<u8>>,
    /// Program name.
    pub program: String,
    pub language: Language,
    /// Site where it was built.
    pub built_at: String,
    /// Stack it was built with (None for serial programs).
    pub stack: Option<crate::mpi::MpiStack>,
    /// Stable identity for seeding execution-time draws.
    pub identity: String,
}

/// Why a compile failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The source does not build with this stack/compiler combination
    /// (the paper: "Some benchmarks would not compile with certain MPI
    /// stacks combinations").
    DoesNotCompile {
        program: String,
        stack: String,
        reason: String,
    },
    /// No such compiler at the site.
    CompilerMissing(CompilerFamily),
    /// A transient toolchain failure (license-server timeout, NFS hiccup);
    /// retrying the same compile can succeed.
    TransientToolFailure(String),
    /// Internal ELF synthesis error.
    Synthesis(String),
}

impl CompileError {
    /// True when a bounded retry can meaningfully clear the error.
    pub fn is_transient(&self) -> bool {
        matches!(self, CompileError::TransientToolFailure(_))
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::DoesNotCompile {
                program,
                stack,
                reason,
            } => {
                write!(f, "{program} does not compile with {stack}: {reason}")
            }
            CompileError::CompilerMissing(fam) => {
                write!(f, "{} compiler not installed", fam.name())
            }
            CompileError::TransientToolFailure(msg) => {
                write!(f, "transient toolchain failure: {msg}")
            }
            CompileError::Synthesis(msg) => write!(f, "toolchain error: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// [`compile`] wrapped in a trace span: records one `compile` span per
/// invocation plus a `compile_done` event with the program name and
/// outcome.
pub fn compile_traced(
    rec: &feam_obs::Recorder,
    site: &Site,
    stack: Option<&InstalledStack>,
    prog: &ProgramSpec,
    seed: u64,
) -> Result<CompiledBinary, CompileError> {
    traced(rec, site, prog, || compile(site, stack, prog, seed))
}

/// Run one compile inside a `compile` span, then record its
/// `compile_done` event and the `compile.runs` / `compile.failures`
/// counts.
fn traced(
    rec: &feam_obs::Recorder,
    site: &Site,
    prog: &ProgramSpec,
    build: impl FnOnce() -> Result<CompiledBinary, CompileError>,
) -> Result<CompiledBinary, CompileError> {
    let _span = rec.span("compile");
    let result = build();
    rec.event(
        "compile_done",
        &[
            ("program", prog.name.as_str().into()),
            ("site", site.name().into()),
            ("ok", result.is_ok().into()),
        ],
    );
    rec.count("compile.runs", 1);
    if result.is_err() {
        rec.count("compile.failures", 1);
    }
    result
}

/// What a [`compile`] at a given site is a function of: the stack (only
/// its identity is read), every field of the program, and the seed.
#[derive(PartialEq, Eq, Hash)]
struct ProbeKey {
    stack: Option<crate::mpi::MpiStack>,
    name: String,
    language: Language,
    uses_mpi: bool,
    glibc_appetite: u64,
    mpi_abi_marker_prob: u64,
    text_size: usize,
    seed: u64,
}

impl ProbeKey {
    fn of(stack: Option<&InstalledStack>, prog: &ProgramSpec, seed: u64) -> Self {
        ProbeKey {
            stack: stack.map(|ist| ist.stack.clone()),
            name: prog.name.clone(),
            language: prog.language,
            uses_mpi: prog.uses_mpi,
            glibc_appetite: prog.glibc_appetite.to_bits(),
            mpi_abi_marker_prob: prog.mpi_abi_marker_prob.to_bits(),
            text_size: prog.text_size,
            seed,
        }
    }
}

/// A site's memo of probe compiles (see [`Site`]): the first build of a key
/// is the one every later request gets, so the image is also one shared
/// allocation.
#[derive(Default)]
pub(crate) struct ProbeBuilds(Mutex<HashMap<ProbeKey, Result<CompiledBinary, CompileError>>>);

impl ProbeBuilds {
    fn get_or_build(
        &self,
        site: &Site,
        stack: Option<&InstalledStack>,
        prog: &ProgramSpec,
        seed: u64,
    ) -> Result<CompiledBinary, CompileError> {
        let key = ProbeKey::of(stack, prog, seed);
        let lock = || self.0.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = lock().get(&key) {
            return hit.clone();
        }
        let built = compile(site, stack, prog, seed);
        lock().entry(key).or_insert(built).clone()
    }
}

/// A probe compile within a session. The session's fault plan is consulted
/// first: probe compiles can fail with injected transient flakiness
/// (retryable) or a persistently broken toolchain, and `attempt` re-rolls
/// transient faults. Past that roll the answer is the site's memoized
/// build. Either way the call is traced as [`compile_traced`] traces it.
pub fn compile_in_session(
    sess: &crate::site::Session<'_>,
    stack: Option<&InstalledStack>,
    prog: &ProgramSpec,
    seed: u64,
    attempt: u32,
) -> Result<CompiledBinary, CompileError> {
    let site = sess.site;
    let stack_tag = stack
        .map(|i| i.stack.ident())
        .unwrap_or_else(|| "serial".to_string());
    let key = format!("{}@{}@{}", prog.name, stack_tag, site.name());
    let fault = sess.roll_fault(crate::faults::Chokepoint::ProbeCompile, &key, attempt);
    traced(&sess.recorder, site, prog, || match fault {
        None => site.probe_builds.get_or_build(site, stack, prog, seed),
        Some(crate::faults::FaultKind::Transient) => Err(CompileError::TransientToolFailure(
            format!("{}: compiler license server timed out", prog.name),
        )),
        Some(crate::faults::FaultKind::Persistent) => Err(CompileError::DoesNotCompile {
            program: prog.name.clone(),
            stack: stack_tag,
            reason: "toolchain wrapper persistently broken".into(),
        }),
    })
}

/// Compile `prog` at `site` using `stack` (or no stack for serial
/// programs). `seed` drives all sampling; the same inputs always produce
/// the same binary.
pub fn compile(
    site: &Site,
    stack: Option<&InstalledStack>,
    prog: &ProgramSpec,
    seed: u64,
) -> Result<CompiledBinary, CompileError> {
    compile_variant(site, stack, prog, seed, BinaryVariant::Normal)
}

/// [`compile`] with a packaging variant: the same deterministic build,
/// post-processed (`Stripped`) or re-linked (`Static`, `Cross`) into the
/// hostile shapes the provenance fallback is evaluated on. Sampling is
/// keyed by the base identity, so a `Stripped` image is byte-for-byte the
/// `Normal` image with its section headers zeroed.
pub fn compile_variant(
    site: &Site,
    stack: Option<&InstalledStack>,
    prog: &ProgramSpec,
    seed: u64,
    variant: BinaryVariant,
) -> Result<CompiledBinary, CompileError> {
    let native = site.config.arch.native_target();
    let (machine, class) = match variant {
        BinaryVariant::Cross => cross_target(native.0),
        _ => native,
    };
    let compiler = match stack {
        Some(ist) => ist.stack.compiler.clone(),
        None => site
            .compiler(CompilerFamily::Gnu)
            .ok_or(CompileError::CompilerMissing(CompilerFamily::Gnu))?
            .compiler
            .clone(),
    };
    if site.compiler(compiler.family).is_none() {
        return Err(CompileError::CompilerMissing(compiler.family));
    }

    let ident = match stack {
        Some(ist) => format!("{}@{}@{}", prog.name, ist.stack.ident(), site.name()),
        None => format!("{}@serial@{}", prog.name, site.name()),
    };
    let h = |tag: &str| rng::hash_parts(seed, &[&ident, tag]);

    let mut spec = ElfSpec::executable(machine, class);
    spec.text_size =
        prog.text_size + (rng::unit_f64(h("size")) * prog.text_size as f64 * 0.5) as usize;
    // The toolchain's code idiom at the head of `.text` — the evidence
    // channel that survives stripping and static linking.
    spec.text_stamp = stamp::text_stamp(
        &compiler,
        stack.filter(|_| prog.uses_mpi).map(|i| i.stack.mpi),
    );

    // ---- DT_NEEDED assembly (link order: MPI, runtimes, system) ----------
    if let Some(ist) = stack {
        if prog.uses_mpi {
            spec.needed.extend(ist.stack.needed_for(prog.language));
        }
    }
    spec.needed.extend(runtime_needed(&compiler, prog.language));
    if prog.language.needs_cxx_rt() && compiler.family != CompilerFamily::Gnu {
        // Intel/PGI C++ reuse the system GCC's libstdc++.
        if let Some(g) = site.compiler(CompilerFamily::Gnu) {
            spec.needed.push(gnu_cxx_soname(&g.compiler).to_string());
        }
    }
    spec.needed.push("libm.so.6".to_string());
    spec.needed.push("libpthread.so.0".to_string());
    spec.needed.push("libc.so.6".to_string());
    spec.needed.dedup();

    // ---- glibc imports ------------------------------------------------------
    let base = libc::baseline_for(class);
    let effective = |v: &str| -> String {
        let vv = libc::glibc_version(v);
        let bb = libc::glibc_version(base);
        if vv.cmp_same_prefix(&bb).map(|o| o.is_lt()).unwrap_or(false) {
            format!("GLIBC_{base}")
        } else {
            format!("GLIBC_{v}")
        }
    };
    // Baseline symbols every program uses.
    for sym in ["printf", "memcpy", "malloc", "exit"] {
        spec.imports
            .push(ImportSpec::versioned(sym, "libc.so.6", &effective("2.0")));
    }
    // Sampled newer symbols, bounded by the build site's glibc.
    for (sym, ver) in libc::symbols_up_to(&site.config.glibc) {
        let vv = libc::glibc_version(ver);
        let bb = libc::glibc_version(base);
        let is_newer = vv.cmp_same_prefix(&bb).map(|o| o.is_gt()).unwrap_or(false);
        if is_newer && rng::chance(seed, &[&ident, "glibc-sym", sym], prog.glibc_appetite) {
            spec.imports
                .push(ImportSpec::versioned(sym, "libc.so.6", &effective(ver)));
        }
    }
    spec.imports
        .push(ImportSpec::versioned("sin", "libm.so.6", &effective("2.0")));

    // ---- MPI footprint --------------------------------------------------------
    if let (Some(ist), true) = (stack, prog.uses_mpi) {
        let c_lib = ist.stack.c_lib_soname();
        for sym in ["MPI_Init", "MPI_Comm_rank", "MPI_Comm_size", "MPI_Finalize"] {
            spec.imports.push(ImportSpec::plain(sym, &c_lib));
        }
        if prog.language.needs_fortran_rt() {
            spec.imports.push(ImportSpec::plain(
                "mpi_init_",
                &ist.stack.fortran_lib_soname(),
            ));
        }
        // The implementation identity marker — what makes MPI types
        // non-interchangeable at link level.
        spec.imports
            .push(ImportSpec::plain(ist.stack.mpi.rt_marker(), &c_lib));
        // The exact-version ABI marker, sometimes.
        if rng::chance(seed, &[&ident, "mpi-abi"], prog.mpi_abi_marker_prob) {
            spec.imports.push(ImportSpec::plain(
                &ist.stack.mpi.abi_marker(&ist.stack.version),
                &c_lib,
            ));
        }
    }

    // ---- compiler runtime footprint ------------------------------------------
    match compiler.family {
        CompilerFamily::Gnu => {
            if prog.language.needs_fortran_rt() {
                let f_so = crate::toolchain::gnu_fortran_soname(&compiler);
                spec.imports
                    .push(ImportSpec::plain("_gfortran_st_write", f_so));
                spec.imports.push(ImportSpec::plain(
                    &rt_marker(CompilerFamily::Gnu, compiler.major()),
                    f_so,
                ));
            }
        }
        CompilerFamily::Intel => {
            spec.imports.push(ImportSpec::plain("exp", "libimf.so"));
            spec.imports.push(ImportSpec::plain(
                &rt_marker(CompilerFamily::Intel, compiler.major()),
                "libimf.so",
            ));
            if prog.language.needs_fortran_rt() {
                spec.imports
                    .push(ImportSpec::plain("for_write_seq_lis", "libifcore.so.5"));
            }
        }
        CompilerFamily::Pgi => {
            spec.imports
                .push(ImportSpec::plain("__c_mcopy8", "libpgc.so"));
            spec.imports.push(ImportSpec::plain(
                &rt_marker(CompilerFamily::Pgi, compiler.major()),
                "libpgc.so",
            ));
            if prog.language.needs_fortran_rt() {
                spec.imports
                    .push(ImportSpec::plain("pgf90_alloc", "libpgf90.so"));
            }
        }
    }

    // ---- C++ GLIBCXX requirement -----------------------------------------------
    if prog.language.needs_cxx_rt() {
        if let Some(g) = site.compiler(CompilerFamily::Gnu) {
            let cxx_so = gnu_cxx_soname(&g.compiler);
            if cxx_so == "libstdc++.so.6" {
                spec.imports.push(ImportSpec::versioned(
                    "_ZNSt8ios_base4InitC1Ev",
                    cxx_so,
                    "GLIBCXX_3.4",
                ));
                let max = glibcxx_max_for_gcc(&g.compiler);
                if max > 0 && rng::chance(seed, &[&ident, "glibcxx"], 0.6) {
                    // Pick some level up to the build site's ladder.
                    let lvl = 1 + rng::hash_parts(seed, &[&ident, "glibcxx-lvl"]) % max as u64;
                    spec.extra_version_refs
                        .push((cxx_so.to_string(), format!("GLIBCXX_3.4.{lvl}")));
                }
            } else {
                spec.imports
                    .push(ImportSpec::plain("_ZNSt8ios_base4InitC1Ev", cxx_so));
            }
        }
    }

    // ---- provenance ---------------------------------------------------------------
    spec.comments = vec![compiler.comment_string(&site.config.os.pretty())];
    // NT_GNU_ABI_TAG: minimum kernel of the build distro.
    spec.abi_tag = Some(feam_elf::AbiTag {
        os: feam_elf::AbiTagOs::Linux,
        kernel: kernel_triple(&site.config.os.kernel),
    });

    // ---- packaging variant --------------------------------------------------------
    match variant {
        BinaryVariant::Static => {
            // The static linker folds every runtime into `.text`; the link
            // footprint disappears, the stamp and `.comment` remain.
            spec.static_link = true;
            spec.needed.clear();
            spec.imports.clear();
            spec.extra_version_refs.clear();
        }
        BinaryVariant::Cross => {
            // Cross toolchain packaging drops the comment strings.
            spec.comments.clear();
        }
        _ => {}
    }

    let mut image = spec
        .build()
        .map_err(|e| CompileError::Synthesis(e.to_string()))?;
    if variant == BinaryVariant::Stripped {
        strip_section_headers(&mut image).map_err(|e| CompileError::Synthesis(e.to_string()))?;
    }
    let identity = match variant {
        BinaryVariant::Normal => ident,
        v => format!("{ident}#{}", v.tag()),
    };
    Ok(CompiledBinary {
        image: Arc::new(image),
        program: prog.name.clone(),
        language: prog.language,
        built_at: site.name().to_string(),
        stack: stack.map(|ist| ist.stack.clone()),
        identity,
    })
}

/// Parse `2.6.18-238.el5` style kernel strings into a version triple.
fn kernel_triple(kernel: &str) -> (u32, u32, u32) {
    let mut nums = kernel
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap_or(0));
    (
        nums.next().unwrap_or(2),
        nums.next().unwrap_or(6),
        nums.next().unwrap_or(0),
    )
}

/// Identify the MPI implementation a binary was built with from its own
/// link-level footprint (used by the execution model; FEAM has its own
/// Table I identification in `feam-core`).
pub fn binary_mpi_impl(meta: &crate::loader::ObjectMeta) -> Option<MpiImpl> {
    for (sym, _, _) in &meta.imports {
        for imp in [MpiImpl::OpenMpi, MpiImpl::Mpich2, MpiImpl::Mvapich2] {
            if sym == imp.rt_marker() {
                return Some(imp);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi::{MpiStack, Network};
    use crate::site::{OsInfo, SiteConfig};
    use crate::toolchain::Compiler;
    use feam_elf::ElfFile;
    use feam_elf::HostArch;

    fn site() -> Site {
        let mut cfg = SiteConfig::new(
            "buildsite",
            HostArch::X86_64,
            OsInfo::new("Red Hat Enterprise Linux Server", "6.1", "2.6.32-131"),
            "2.12",
            21,
        );
        cfg.compilers = vec![
            Compiler::new(CompilerFamily::Gnu, "4.4.5"),
            Compiler::new(CompilerFamily::Intel, "12.0"),
        ];
        cfg.stacks = vec![(
            MpiStack::new(
                MpiImpl::OpenMpi,
                "1.4",
                Compiler::new(CompilerFamily::Gnu, "4.4.5"),
                Network::Infiniband,
            ),
            true,
        )];
        Site::build(cfg)
    }

    #[test]
    fn compiled_binary_is_valid_elf_with_mpi_footprint() {
        let s = site();
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("cg.B.8", Language::Fortran);
        let bin = compile(&s, Some(&ist), &prog, 42).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        assert!(f.needed().iter().any(|n| n == "libmpi.so.0"));
        assert!(f.needed().iter().any(|n| n == "libmpi_f77.so.0"));
        assert!(f.needed().iter().any(|n| n == "libgfortran.so.3"));
        assert!(f.needed().iter().any(|n| n == "libnsl.so.1")); // Table I id
        assert!(f
            .dynamic_symbols()
            .iter()
            .any(|sym| sym.name == "ompi_rt_ident" && sym.undefined));
        assert!(f.comments()[0].starts_with("GCC:"));
    }

    #[test]
    fn compile_is_deterministic() {
        let s = site();
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("is.C.16", Language::C);
        let a = compile(&s, Some(&ist), &prog, 42).unwrap();
        let b = compile(&s, Some(&ist), &prog, 42).unwrap();
        assert_eq!(a.image, b.image);
        let c = compile(&s, Some(&ist), &prog, 43).unwrap();
        assert_ne!(a.image, c.image, "different seed, different sampling");
    }

    #[test]
    fn required_glibc_bounded_by_build_site() {
        let s = site(); // glibc 2.12
        let ist = s.stacks[0].clone();
        let mut prog = ProgramSpec::new("lu.A.4", Language::Fortran);
        prog.glibc_appetite = 1.0; // use everything available
        let bin = compile(&s, Some(&ist), &prog, 7).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        let req = f.required_glibc().unwrap();
        assert_eq!(req.render(), "GLIBC_2.12");
    }

    #[test]
    fn portable_program_requires_only_baseline() {
        let s = site();
        let ist = s.stacks[0].clone();
        let mut prog = ProgramSpec::new("ep.A.2", Language::Fortran);
        prog.glibc_appetite = 0.0;
        let bin = compile(&s, Some(&ist), &prog, 7).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.2.5");
    }

    #[test]
    fn hello_world_always_carries_abi_marker() {
        let s = site();
        let ist = s.stacks[0].clone();
        let hw = ProgramSpec::mpi_hello_world(Language::C);
        for seed in 0..5 {
            let bin = compile(&s, Some(&ist), &hw, seed).unwrap();
            let f = ElfFile::parse(&bin.image).unwrap();
            assert!(f
                .dynamic_symbols()
                .iter()
                .any(|sym| sym.name == "ompi_abi_v1" && sym.undefined));
        }
    }

    #[test]
    fn serial_program_has_no_mpi_libs() {
        let s = site();
        let prog = ProgramSpec::serial_hello_world();
        let bin = compile(&s, None, &prog, 1).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        assert!(!f.needed().iter().any(|n| n.starts_with("libmpi")));
    }

    #[test]
    fn missing_compiler_family_is_error() {
        let s = site(); // no PGI
        let ist = InstalledStack {
            stack: MpiStack::new(
                MpiImpl::OpenMpi,
                "1.4",
                Compiler::new(CompilerFamily::Pgi, "10.9"),
                Network::Ethernet,
            ),
            prefix: "/opt/x".into(),
            module_name: None,
            functional: true,
        };
        let prog = ProgramSpec::new("bt.A.4", Language::Fortran);
        assert!(matches!(
            compile(&s, Some(&ist), &prog, 1),
            Err(CompileError::CompilerMissing(CompilerFamily::Pgi))
        ));
    }

    #[test]
    fn stripped_variant_is_the_normal_image_with_headers_zeroed() {
        let s = site();
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("bt.A.4", Language::Fortran);
        let normal = compile(&s, Some(&ist), &prog, 42).unwrap();
        let stripped = compile_variant(&s, Some(&ist), &prog, 42, BinaryVariant::Stripped).unwrap();
        assert_eq!(normal.image.len(), stripped.image.len());
        assert!(stripped.identity.ends_with("#stripped"));
        let f = ElfFile::parse(&stripped.image).unwrap();
        assert!(f.sections().is_empty());
        assert!(f.comments().is_empty());
        assert!(!f.needed().is_empty(), "segment route survives");
        // Same stamp at the entry point as the normal build.
        let fs = ElfFile::parse(&normal.image).unwrap();
        assert_eq!(
            &f.code_bytes().unwrap()[..24],
            &fs.code_bytes().unwrap()[..24]
        );
    }

    #[test]
    fn static_variant_keeps_comment_and_stamp_only() {
        let s = site();
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("sp.B.9", Language::C);
        let bin = compile_variant(&s, Some(&ist), &prog, 7, BinaryVariant::Static).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        assert!(!f.is_dynamic());
        assert!(f.needed().is_empty());
        assert!(f.comments()[0].starts_with("GCC:"));
        let expected = stamp::text_stamp(&ist.stack.compiler, Some(ist.stack.mpi));
        assert_eq!(&f.code_bytes().unwrap()[..expected.len()], &expected[..]);
    }

    #[test]
    fn cross_variant_targets_foreign_isa_without_comments() {
        let s = site(); // x86_64 native
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("mg.C.16", Language::C);
        let bin = compile_variant(&s, Some(&ist), &prog, 9, BinaryVariant::Cross).unwrap();
        let f = ElfFile::parse(&bin.image).unwrap();
        assert_eq!(f.machine(), Machine::Ppc64);
        assert!(f.comments().is_empty());
        assert!(!f.needed().is_empty(), "cross build is still dynamic");
    }

    #[test]
    fn every_variant_carries_the_same_stamp_lanes() {
        let s = site();
        let ist = s.stacks[0].clone();
        let prog = ProgramSpec::new("lu.B.8", Language::Fortran);
        let expected = stamp::text_stamp(&ist.stack.compiler, Some(ist.stack.mpi));
        for v in BinaryVariant::ALL {
            let bin = compile_variant(&s, Some(&ist), &prog, 11, v).unwrap();
            let f = ElfFile::parse(&bin.image).unwrap();
            let code = f.code_bytes().expect("code bytes for every variant");
            assert_eq!(&code[..expected.len()], &expected[..], "{v:?}");
        }
    }

    #[test]
    fn binary_mpi_impl_identified_from_marker() {
        let s = site();
        let ist = s.stacks[0].clone();
        let bin = compile(
            &s,
            Some(&ist),
            &ProgramSpec::new("mg.B.4", Language::Fortran),
            3,
        )
        .unwrap();
        let meta = crate::loader::ObjectMeta::parse(&bin.image).unwrap();
        assert_eq!(binary_mpi_impl(&meta), Some(MpiImpl::OpenMpi));
    }
}
