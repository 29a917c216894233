//! MPI implementations, stacks, and their link-level identities.
//!
//! §III.B: "MPI is only an interface specification … implementations of the
//! standard have produced various libraries (Open MPI, MPICH, MVAPICH) that
//! are not interchangeable because the MPI specification is not a
//! link-level specification." This module encodes exactly those link-level
//! differences — Table I's identification signatures fall out of the
//! `DT_NEEDED` sets this module produces.

use crate::rng;
use crate::toolchain::{Compiler, Language, LibraryBlueprint};
use feam_elf::{ExportSpec, ImportSpec};
use serde::Serialize;

/// The three dominant open-source MPI implementations of the paper's era.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MpiImpl {
    OpenMpi,
    Mpich2,
    Mvapich2,
}

impl MpiImpl {
    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            MpiImpl::OpenMpi => "Open MPI",
            MpiImpl::Mpich2 => "MPICH2",
            MpiImpl::Mvapich2 => "MVAPICH2",
        }
    }

    /// Lower-case tag used in prefixes and module names.
    pub fn tag(self) -> &'static str {
        match self {
            MpiImpl::OpenMpi => "openmpi",
            MpiImpl::Mpich2 => "mpich2",
            MpiImpl::Mvapich2 => "mvapich2",
        }
    }

    /// The always-imported runtime marker symbol that makes binaries of
    /// different MPI types non-interchangeable at link level.
    pub fn rt_marker(self) -> &'static str {
        match self {
            MpiImpl::OpenMpi => "ompi_rt_ident",
            MpiImpl::Mpich2 => "mpich2_rt_ident",
            MpiImpl::Mvapich2 => "mvapich2_rt_ident",
        }
    }

    /// Per-version ABI marker (`ompi_abi_v1_4` …). A library of version V
    /// exports markers for every version ≤ V of the same implementation;
    /// a binary built against V imports the V marker *sometimes* (seeded),
    /// reproducing the paper's "compiled with Open MPI 1.4 executes on 1.3
    /// in some instances but not others".
    pub fn abi_marker(self, version: &str) -> String {
        // ABI granularity differs per implementation, matching the era's
        // observed behaviour: Open MPI's 1.x line stayed link-compatible
        // across 1.3/1.4 (the paper's 1.4-on-1.3 binaries ran "in some
        // instances"), so its marker is major-grained; the MPICH lineage
        // broke between minors (MVAPICH2 1.2 → 1.7, MPICH2 1.3 → 1.4), so
        // those markers are major.minor-grained.
        let grain = match self {
            MpiImpl::OpenMpi => version
                .split('.')
                .next()
                .unwrap_or(version)
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>(),
            MpiImpl::Mpich2 | MpiImpl::Mvapich2 => major_minor(version),
        };
        let stem = match self {
            MpiImpl::OpenMpi => "ompi",
            MpiImpl::Mpich2 => "mpich2",
            MpiImpl::Mvapich2 => "mvapich2",
        };
        format!("{stem}_abi_v{}", grain.replace('.', "_"))
    }

    /// All versions of this implementation that appear on the testbed, in
    /// ascending order (used to emit backward-compatible marker sets).
    pub fn known_versions(self) -> &'static [&'static str] {
        match self {
            MpiImpl::OpenMpi => &["1.3", "1.4", "1.4.3"],
            MpiImpl::Mpich2 => &["1.3", "1.4"],
            MpiImpl::Mvapich2 => &["1.2", "1.7a", "1.7a2", "1.7rc1"],
        }
    }
}

/// Interconnect type of a stack (§I: "the combination of the MPI
/// implementation, associated compilers, and interconnection network").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Network {
    Ethernet,
    Infiniband,
}

impl Network {
    pub fn name(self) -> &'static str {
        match self {
            Network::Ethernet => "Ethernet",
            Network::Infiniband => "InfiniBand",
        }
    }
}

/// A full MPI stack: implementation + version + compiler + network.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct MpiStack {
    pub mpi: MpiImpl,
    pub version: String,
    pub compiler: Compiler,
    pub network: Network,
}

impl MpiStack {
    pub fn new(mpi: MpiImpl, version: &str, compiler: Compiler, network: Network) -> Self {
        MpiStack {
            mpi,
            version: version.to_string(),
            compiler,
            network,
        }
    }

    /// Identifier like `openmpi-1.4.3-intel-11.1`, used as install-prefix
    /// leaf and module name.
    pub fn ident(&self) -> String {
        format!(
            "{}-{}-{}",
            self.mpi.tag(),
            self.version,
            self.compiler.ident()
        )
    }

    /// Install prefix on a site, e.g. `/opt/openmpi-1.4.3-intel-11.1`.
    pub fn prefix(&self) -> String {
        format!("/opt/{}", self.ident())
    }

    /// The MPI C library soname for this implementation/version.
    pub fn c_lib_soname(&self) -> String {
        match self.mpi {
            MpiImpl::OpenMpi => "libmpi.so.0".to_string(),
            // MPICH2 and MVAPICH2 share the libmpich soname lineage — the
            // root of Table I's need for secondary identifiers.
            MpiImpl::Mpich2 | MpiImpl::Mvapich2 => "libmpich.so.1.2".to_string(),
        }
    }

    /// The Fortran MPI library soname.
    pub fn fortran_lib_soname(&self) -> String {
        match self.mpi {
            MpiImpl::OpenMpi => "libmpi_f77.so.0".to_string(),
            MpiImpl::Mpich2 | MpiImpl::Mvapich2 => "libmpichf90.so.1.2".to_string(),
        }
    }

    /// Extra sonames an application is linked against because of this
    /// stack (beyond the MPI libraries themselves). These are Table I's
    /// identification signatures.
    pub fn companion_needed(&self) -> Vec<String> {
        match self.mpi {
            MpiImpl::OpenMpi => {
                // mpicc adds -lnsl -lutil on the paper's systems.
                vec![
                    "libopen-rte.so.0".into(),
                    "libopen-pal.so.0".into(),
                    "libnsl.so.1".into(),
                    "libutil.so.1".into(),
                ]
            }
            MpiImpl::Mvapich2 => vec![
                "libibverbs.so.1".into(),
                "libibumad.so.3".into(),
                "librdmacm.so.1".into(),
            ],
            MpiImpl::Mpich2 => vec!["libmpl.so.1".into(), "libopa.so.1".into()],
        }
    }

    /// `DT_NEEDED` contribution of this stack for a given language.
    pub fn needed_for(&self, language: Language) -> Vec<String> {
        let mut out = vec![self.c_lib_soname()];
        if language.needs_fortran_rt() {
            out.insert(0, self.fortran_lib_soname());
        }
        out.extend(self.companion_needed());
        out
    }

    /// ABI markers this stack's libraries export: one per known
    /// major.minor of the implementation up to and including this stack's
    /// version (newer libraries remain link-compatible with older
    /// binaries; the reverse does not hold).
    pub fn exported_abi_markers(&self) -> Vec<String> {
        let my_rank = version_rank(&self.version);
        let mut out: Vec<String> = self
            .mpi
            .known_versions()
            .iter()
            .filter(|v| version_rank(&major_minor(v)) <= my_rank || version_rank(v) <= my_rank)
            .map(|v| self.mpi.abi_marker(v))
            .collect();
        out.dedup();
        out
    }

    /// Blueprints for the MPI libraries this stack installs under
    /// `<prefix>/lib`. `glibc_import` records the build-site glibc level.
    pub fn library_blueprints(&self, glibc_import: &str, seed: u64) -> Vec<LibraryBlueprint> {
        let markers: Vec<ExportSpec> = std::iter::once(self.mpi.rt_marker().to_string())
            .chain(self.exported_abi_markers())
            .map(|m| ExportSpec::new(&m, None))
            .collect();
        let mpi_exports: Vec<ExportSpec> = [
            "MPI_Init",
            "MPI_Finalize",
            "MPI_Comm_rank",
            "MPI_Comm_size",
            "MPI_Send",
            "MPI_Recv",
            "MPI_Bcast",
            "MPI_Reduce",
            "MPI_Allreduce",
            "MPI_Barrier",
            "MPI_Wtime",
            "MPI_Isend",
            "MPI_Irecv",
            "MPI_Waitall",
            "MPI_Alltoall",
        ]
        .iter()
        .map(|s| ExportSpec::new(s, None))
        .collect();
        let fortran_exports: Vec<ExportSpec> = [
            "mpi_init_",
            "mpi_finalize_",
            "mpi_comm_rank_",
            "mpi_send_",
            "mpi_recv_",
        ]
        .iter()
        .map(|s| ExportSpec::new(s, None))
        .collect();
        let glibc_imp = |sym: &str| ImportSpec::versioned(sym, "libc.so.6", glibc_import);
        let sized = |base: usize, tag: &str| {
            let h = rng::hash_parts(seed, &[&self.ident(), tag]);
            base + (rng::unit_f64(h) * base as f64 * 0.5) as usize - base / 4
        };

        let mut out = Vec::new();
        let c_soname = self.c_lib_soname();
        let mut c_lib = LibraryBlueprint::new(
            &c_soname,
            &format!("{c_soname}.{}", version_rank(&self.version) % 10),
            sized(9_200_000, "clib"),
        );
        c_lib.exports = mpi_exports;
        c_lib.exports.extend(markers.iter().cloned());
        c_lib.needed = match self.mpi {
            MpiImpl::OpenMpi => vec![
                "libopen-rte.so.0".into(),
                "libnsl.so.1".into(),
                "libutil.so.1".into(),
                "libm.so.6".into(),
                "libc.so.6".into(),
            ],
            MpiImpl::Mvapich2 => vec![
                "libibverbs.so.1".into(),
                "libibumad.so.3".into(),
                "librdmacm.so.1".into(),
                "libm.so.6".into(),
                "libpthread.so.0".into(),
                "libc.so.6".into(),
            ],
            MpiImpl::Mpich2 => vec![
                "libmpl.so.1".into(),
                "libopa.so.1".into(),
                "libm.so.6".into(),
                "libpthread.so.0".into(),
                "libc.so.6".into(),
            ],
        };
        c_lib.imports = vec![glibc_imp("memcpy"), glibc_imp("malloc")];
        c_lib.comments = vec![self.compiler.comment_string("build")];
        out.push(c_lib);

        let f_soname = self.fortran_lib_soname();
        let mut f_lib = LibraryBlueprint::new(
            &f_soname,
            &format!("{f_soname}.0"),
            sized(1_300_000, "flib"),
        );
        f_lib.exports = fortran_exports;
        f_lib.exports.extend(markers.iter().cloned());
        f_lib.needed = vec![c_soname.clone(), "libc.so.6".into()];
        f_lib.imports = vec![glibc_imp("memcpy")];
        out.push(f_lib);

        match self.mpi {
            MpiImpl::OpenMpi => {
                for (soname, base, tag) in [
                    ("libopen-rte.so.0", 2_000_000usize, "rte"),
                    ("libopen-pal.so.0", 1_500_000, "pal"),
                ] {
                    let mut b =
                        LibraryBlueprint::new(soname, &format!("{soname}.0.0"), sized(base, tag));
                    b.exports = vec![ExportSpec::new(&format!("{tag}_init"), None)];
                    b.exports.extend(markers.iter().cloned());
                    b.needed = if soname == "libopen-rte.so.0" {
                        vec![
                            "libopen-pal.so.0".into(),
                            "libnsl.so.1".into(),
                            "libutil.so.1".into(),
                            "libc.so.6".into(),
                        ]
                    } else {
                        vec!["libutil.so.1".into(), "libc.so.6".into()]
                    };
                    b.imports = vec![glibc_imp("memcpy")];
                    out.push(b);
                }
            }
            MpiImpl::Mpich2 => {
                for (soname, base, tag) in [
                    ("libmpl.so.1", 260_000usize, "mpl"),
                    ("libopa.so.1", 200_000, "opa"),
                ] {
                    let mut b =
                        LibraryBlueprint::new(soname, &format!("{soname}.0"), sized(base, tag));
                    b.exports = vec![ExportSpec::new(&format!("{tag}_trmem"), None)];
                    b.needed = vec!["libc.so.6".into()];
                    b.imports = vec![glibc_imp("memcpy")];
                    out.push(b);
                }
            }
            MpiImpl::Mvapich2 => {} // IB userspace libs are system-level, not per-stack
        }
        out
    }

    /// Wrapper executable names installed in `<prefix>/bin`.
    pub fn wrapper_names(&self) -> Vec<&'static str> {
        vec!["mpicc", "mpicxx", "mpif77", "mpif90", "mpiexec", "mpirun"]
    }
}

/// The `major.minor` part of a version string (`1.4.3` → `1.4`,
/// `1.7rc1` → `1.7`).
pub fn major_minor(v: &str) -> String {
    let parts: Vec<String> = v
        .split('.')
        .take(2)
        .map(|c| c.chars().take_while(|ch| ch.is_ascii_digit()).collect())
        .collect();
    parts.join(".")
}

/// Rank a dotted (possibly suffixed: `1.7a2`, `1.7rc1`) version string for
/// ordering within one implementation.
pub fn version_rank(v: &str) -> u64 {
    let mut rank: u64 = 0;
    let mut parts = 0;
    for comp in v.split('.').take(3) {
        let digits: String = comp.chars().take_while(|c| c.is_ascii_digit()).collect();
        let n: u64 = digits.parse().unwrap_or(0);
        rank = rank * 1000 + n;
        parts += 1;
    }
    for _ in parts..3 {
        rank *= 1000;
    }
    // Pre-release suffixes (a, a2, rc1) rank below the plain release but
    // above the previous patch level; a trailing number orders within a
    // suffix class (a < a2, rc1 < rc2).
    let suffix: String = v.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    let suffix_class: u64 = match suffix.as_str() {
        "" => 90,
        "rc" => 50,
        "a" => 10,
        _ => 20,
    };
    let suffix_num: u64 = v
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|s| {
            if suffix.is_empty() {
                None
            } else {
                s.parse().ok()
            }
        })
        .unwrap_or(0);
    rank * 1000 + suffix_class + suffix_num
}

/// InfiniBand userspace libraries (system-level, present at IB sites).
pub fn infiniband_blueprints(glibc_import: &str) -> Vec<LibraryBlueprint> {
    let glibc_imp = |sym: &str| ImportSpec::versioned(sym, "libc.so.6", glibc_import);
    [
        (
            "libibverbs.so.1",
            "libibverbs.so.1.0.0",
            68_000usize,
            "ibv_open_device",
        ),
        ("libibumad.so.3", "libibumad.so.3.0.2", 31_000, "umad_init"),
        (
            "librdmacm.so.1",
            "librdmacm.so.1.0.0",
            54_000,
            "rdma_create_id",
        ),
    ]
    .into_iter()
    .map(|(soname, file, size, sym)| {
        let mut b = LibraryBlueprint::new(soname, file, size);
        b.exports = vec![ExportSpec::new(sym, None)];
        b.needed = vec![
            "libdl.so.2".into(),
            "libpthread.so.0".into(),
            "libc.so.6".into(),
        ];
        b.imports = vec![glibc_imp("malloc")];
        b
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain::CompilerFamily;

    fn stack(mpi: MpiImpl, v: &str) -> MpiStack {
        MpiStack::new(
            mpi,
            v,
            Compiler::new(CompilerFamily::Gnu, "4.1.2"),
            Network::Infiniband,
        )
    }

    #[test]
    fn version_rank_orders_correctly() {
        assert!(version_rank("1.3") < version_rank("1.4"));
        assert!(version_rank("1.4") < version_rank("1.4.3"));
        assert!(version_rank("1.2") < version_rank("1.7a"));
        assert!(version_rank("1.7a") < version_rank("1.7a2"));
        assert!(version_rank("1.7a2") < version_rank("1.7rc1"));
        assert!(version_rank("1.7rc1") < version_rank("1.7"));
    }

    #[test]
    fn table_one_signatures() {
        // Table I: MVAPICH2 → libmpich + libibverbs + libibumad.
        let mv = stack(MpiImpl::Mvapich2, "1.7a").needed_for(Language::Fortran);
        assert!(mv.iter().any(|n| n.starts_with("libmpich")));
        assert!(mv.iter().any(|n| n.starts_with("libibverbs")));
        assert!(mv.iter().any(|n| n.starts_with("libibumad")));
        // Open MPI → libnsl + libutil, no libmpich.
        let om = stack(MpiImpl::OpenMpi, "1.4").needed_for(Language::C);
        assert!(om.iter().any(|n| n.starts_with("libnsl")));
        assert!(om.iter().any(|n| n.starts_with("libutil")));
        assert!(!om.iter().any(|n| n.starts_with("libmpich")));
        // MPICH2 → libmpich without the IB identifiers.
        let mp = stack(MpiImpl::Mpich2, "1.4").needed_for(Language::C);
        assert!(mp.iter().any(|n| n.starts_with("libmpich")));
        assert!(!mp.iter().any(|n| n.starts_with("libibverbs")));
    }

    #[test]
    fn newer_stack_exports_older_abi_markers() {
        // Open MPI markers are major-grained: 1.3 and 1.4 share one.
        let s14 = stack(MpiImpl::OpenMpi, "1.4");
        let s13 = stack(MpiImpl::OpenMpi, "1.3");
        assert_eq!(s14.exported_abi_markers(), vec!["ompi_abi_v1".to_string()]);
        assert_eq!(s13.exported_abi_markers(), s14.exported_abi_markers());
        // The MPICH lineage is minor-grained: 1.4 exports 1.3's marker but
        // not vice versa.
        let m14 = stack(MpiImpl::Mpich2, "1.4");
        let m13 = stack(MpiImpl::Mpich2, "1.3");
        assert!(m14
            .exported_abi_markers()
            .contains(&"mpich2_abi_v1_3".to_string()));
        assert!(m14
            .exported_abi_markers()
            .contains(&"mpich2_abi_v1_4".to_string()));
        assert!(!m13
            .exported_abi_markers()
            .contains(&"mpich2_abi_v1_4".to_string()));
    }

    #[test]
    fn fortran_adds_fortran_mpi_lib() {
        let s = stack(MpiImpl::OpenMpi, "1.4");
        let f = s.needed_for(Language::Fortran);
        let c = s.needed_for(Language::C);
        assert!(f.contains(&"libmpi_f77.so.0".to_string()));
        assert!(!c.contains(&"libmpi_f77.so.0".to_string()));
    }

    #[test]
    fn blueprints_include_rt_marker_and_backcompat() {
        let s = stack(MpiImpl::Mvapich2, "1.7a2");
        let bps = s.library_blueprints("GLIBC_2.5", 3);
        let c_lib = bps
            .iter()
            .find(|b| b.soname.starts_with("libmpich"))
            .unwrap();
        assert!(c_lib
            .exports
            .iter()
            .any(|e| e.symbol == "mvapich2_rt_ident"));
        assert!(c_lib
            .exports
            .iter()
            .any(|e| e.symbol == "mvapich2_abi_v1_2"));
        // Markers are major.minor grained: every 1.7 flavour shares one.
        assert!(c_lib
            .exports
            .iter()
            .any(|e| e.symbol == "mvapich2_abi_v1_7"));
        // A 1.2-era stack does not export the 1.7 marker.
        let old = stack(MpiImpl::Mvapich2, "1.2");
        let old_bps = old.library_blueprints("GLIBC_2.5", 3);
        let old_c = old_bps
            .iter()
            .find(|b| b.soname.starts_with("libmpich"))
            .unwrap();
        assert!(!old_c
            .exports
            .iter()
            .any(|e| e.symbol == "mvapich2_abi_v1_7"));
    }

    #[test]
    fn mpich2_and_mvapich2_share_soname_but_not_markers() {
        let mv = stack(MpiImpl::Mvapich2, "1.7a").c_lib_soname();
        let mp = stack(MpiImpl::Mpich2, "1.4").c_lib_soname();
        assert_eq!(mv, mp, "the soname collision that motivates Table I");
        assert_ne!(MpiImpl::Mvapich2.rt_marker(), MpiImpl::Mpich2.rt_marker());
    }

    #[test]
    fn stack_ident_and_prefix() {
        let s = MpiStack::new(
            MpiImpl::OpenMpi,
            "1.4.3",
            Compiler::new(CompilerFamily::Intel, "11.1"),
            Network::Infiniband,
        );
        assert_eq!(s.ident(), "openmpi-1.4.3-intel-11.1");
        assert_eq!(s.prefix(), "/opt/openmpi-1.4.3-intel-11.1");
    }
}
