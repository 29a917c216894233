//! The Binary Description Component (§V.A).
//!
//! Gathers the Figure 3 information about an MPI application binary:
//!
//! * ISA and file format of the binary,
//! * library name and version, if the binary is itself a shared library,
//! * required shared libraries (with copies and descriptions at a GEE),
//! * C library version requirements,
//! * MPI stack, operating system, and C library version used to build it.
//!
//! Information is gathered the way FEAM does it: primarily by parsing the
//! ELF image (`objdump -p` / `readelf` equivalents via `feam-elf`), with
//! `ldd`-based dependency location at guaranteed execution sites and
//! `locate`/`find` fallbacks when `ldd` is absent or unreliable.

use crate::cache::{BdcKey, Freshness, Memo};
use crate::error::{FeamError, Result};
use crate::intern::{IStr, Interner};
use feam_elf::comment::{extract_provenance, Provenance};
use feam_elf::{Class, FileKind, LazyElf, Machine, Soname, VersionName, VersionRef, VersionRefV};
use feam_sim::mpi::MpiImpl;
use feam_sim::site::Session;
use feam_sim::tools::{self, LddResult};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Identification of the MPI implementation a binary was compiled with,
/// using Table I's link-level signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MpiIdentification {
    /// Identified as one of the three implementations.
    Identified(MpiImpl),
    /// Dynamically linked but no MPI library among the dependencies.
    NotMpi,
}

/// Table I: identify the MPI implementation from the `DT_NEEDED` list.
///
/// * MVAPICH2 — `libmpich`/`libmpichf90` **and** `libibverbs` + `libibumad`;
/// * Open MPI — `libnsl` + `libutil` (and `libmpi`);
/// * MPICH2 — `libmpich`/`libmpichf90` and *not* the other identifiers.
pub fn identify_mpi<S: AsRef<str>>(needed: &[S]) -> MpiIdentification {
    let has = |prefix: &str| needed.iter().any(|n| n.as_ref().starts_with(prefix));
    let has_mpich = has("libmpich");
    let has_ibverbs = has("libibverbs");
    let has_ibumad = has("libibumad");
    let has_openmpi_lib = has("libmpi.so") || has("libmpi_f77") || has("libmpi_f90");
    let has_nsl = has("libnsl");
    let has_util = has("libutil");
    if has_mpich {
        if has_ibverbs && has_ibumad {
            MpiIdentification::Identified(MpiImpl::Mvapich2)
        } else {
            MpiIdentification::Identified(MpiImpl::Mpich2)
        }
    } else if has_openmpi_lib && has_nsl && has_util {
        MpiIdentification::Identified(MpiImpl::OpenMpi)
    } else if has_openmpi_lib {
        // libmpi present but the companion identifiers are not: still Open
        // MPI's library lineage.
        MpiIdentification::Identified(MpiImpl::OpenMpi)
    } else {
        MpiIdentification::NotMpi
    }
}

/// Build-environment hints recovered from `.comment` (what OS / compiler /
/// C library the binary was created with).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildEnvironment {
    /// Compiler identification string.
    pub compiler: Option<String>,
    /// Distribution hint from the compiler vendor string.
    pub distro_hint: Option<String>,
}

/// The Figure 3 description of one binary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinaryDescription {
    /// Where the binary was read from.
    pub path: String,
    /// File format name (always `ELF` for parseable inputs).
    pub format: String,
    pub machine: Machine,
    pub class: Class,
    pub kind: FileKind,
    /// Whether the binary is dynamically linked.
    pub is_dynamic: bool,
    /// `DT_NEEDED` sonames.
    pub needed: Vec<IStr>,
    /// For shared libraries: the official shared-object name…
    pub soname: Option<IStr>,
    /// …and the version information embedded in it.
    pub embedded_version: Option<Soname>,
    /// The required C library version (§III.C).
    pub required_glibc: Option<VersionName>,
    /// Full Version References (used by extended compatibility checks).
    pub version_refs: Vec<VersionRef>,
    /// MPI implementation identification (Table I).
    pub mpi: MpiIdentification,
    /// Raw `.comment` strings.
    pub comments: Vec<IStr>,
    /// Parsed build-environment hints.
    pub build_env: BuildEnvironment,
    /// `NT_GNU_ABI_TAG` (OS + minimum kernel), when present.
    pub abi_tag: Option<feam_elf::AbiTag>,
    /// Which evidence tables the image actually carries (absence is a
    /// finding, not a fault).
    pub evidence: feam_elf::EvidenceSurvey,
    /// Fallback provenance claims from signature matching. Attached only
    /// when direct evidence is missing (`.comment` empty or the binary is
    /// statically linked), so cooperative binaries describe identically to
    /// earlier releases.
    pub provenance: Option<feam_provenance::ProvenanceReport>,
    /// Image size in bytes.
    pub size: usize,
    /// Stable content hash of the described image — the primary lane of
    /// the [`crate::cache::BdcKey`] the description caches key on, so the
    /// image is hashed once per describe, not once per consumer.
    pub content_hash: u64,
}

impl BinaryDescription {
    /// Describe an ELF image read from `path` bytes.
    pub fn from_bytes(path: &str, bytes: &[u8]) -> Result<Self> {
        Self::from_bytes_keyed(path, bytes, crate::cache::BdcKey::of(bytes), None)
    }

    /// [`from_bytes`](Self::from_bytes) with the content key precomputed —
    /// `content_hash` is the key's primary lane, so an image is hashed
    /// exactly once per describe instead of once per consumer — and an
    /// optional per-request name arena so every description in a request's
    /// library graph shares one allocation per distinct soname/comment.
    pub fn from_bytes_keyed(
        path: &str,
        bytes: &[u8],
        key: crate::cache::BdcKey,
        mut arena: Option<&mut Interner>,
    ) -> Result<Self> {
        let f = LazyElf::parse(bytes)
            .map_err(|e| FeamError::BinaryUnreadable(format!("{path}: {e}")))?;
        let provenance: Provenance = extract_provenance(f.comments());
        let evidence = f.evidence();
        // Fall back to signature matching only when a direct channel is
        // missing; a non-empty report then carries the calibrated claims.
        let fallback = if evidence.needs_fallback() {
            Some(feam_provenance::analyze(&f)).filter(|r| !r.is_empty())
        } else {
            None
        };
        let mut name = |s: &str| match arena.as_deref_mut() {
            Some(a) => a.istr(s),
            None => IStr::new(s),
        };
        let needed: Vec<IStr> = f.needed().iter().map(|s| name(s)).collect();
        let soname = f.soname().map(&mut name);
        let comments: Vec<IStr> = f.comments().iter().map(|s| name(s)).collect();
        Ok(BinaryDescription {
            path: path.to_string(),
            format: "ELF".to_string(),
            machine: f.machine(),
            class: f.class(),
            kind: f.kind(),
            is_dynamic: f.is_dynamic(),
            embedded_version: f.soname().and_then(Soname::parse),
            required_glibc: f.required_glibc(),
            version_refs: f.version_refs().iter().map(VersionRefV::owned).collect(),
            mpi: identify_mpi(&needed),
            needed,
            soname,
            comments,
            build_env: BuildEnvironment {
                compiler: provenance.compiler,
                distro_hint: provenance.distro_hint,
            },
            abi_tag: f.abi_tag(),
            evidence,
            provenance: fallback,
            size: bytes.len(),
            content_hash: key.hash,
        })
    }

    /// The historical eager twin of [`from_bytes`](Self::from_bytes), kept
    /// for the differential suite (`tests/elf_differential.rs`): parses
    /// with the owned `reader::ElfFile` and must serialize byte-identically
    /// to the lazy path on every input both accept.
    #[cfg(feature = "eager")]
    pub fn from_bytes_eager(path: &str, bytes: &[u8]) -> Result<Self> {
        let f = feam_elf::ElfFile::parse(bytes)
            .map_err(|e| FeamError::BinaryUnreadable(format!("{path}: {e}")))?;
        let provenance: Provenance = extract_provenance(f.comments());
        let evidence = f.evidence();
        let fallback = if evidence.needs_fallback() {
            Some(feam_provenance::analyze_eager(&f)).filter(|r| !r.is_empty())
        } else {
            None
        };
        let needed: Vec<IStr> = f.needed().iter().map(|s| IStr::new(s)).collect();
        Ok(BinaryDescription {
            path: path.to_string(),
            format: "ELF".to_string(),
            machine: f.machine(),
            class: f.class(),
            kind: f.kind(),
            is_dynamic: f.is_dynamic(),
            soname: f.soname().map(IStr::new),
            embedded_version: f.soname().and_then(Soname::parse),
            required_glibc: f.required_glibc(),
            version_refs: f.version_refs().to_vec(),
            mpi: identify_mpi(&needed),
            needed,
            comments: f.comments().iter().map(|s| IStr::new(s)).collect(),
            build_env: BuildEnvironment {
                compiler: provenance.compiler,
                distro_hint: provenance.distro_hint,
            },
            abi_tag: f.abi_tag(),
            evidence,
            provenance: fallback,
            size: bytes.len(),
            content_hash: crate::cache::BdcKey::of(bytes).hash,
        })
    }

    /// Describe the binary at `path` within a session. The content key is
    /// taken from the pointer-memoized [`crate::cache::content_key_of`], so
    /// a buffer shared with the VFS is hashed once per process, not once
    /// per request.
    pub fn from_session(sess: &Session<'_>, path: &str) -> Result<Self> {
        let bytes = sess
            .read_bytes(path)
            .ok_or_else(|| FeamError::BinaryUnreadable(format!("{path}: no such file")))?;
        Self::from_bytes_keyed(path, &bytes, crate::cache::content_key_of(&bytes), None)
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{} {}-bit {} [{}], {} shared library deps, requires {}",
            self.machine.name(),
            self.class.bits(),
            match self.kind {
                FileKind::Executable => "executable",
                FileKind::SharedObject => "shared object",
                _ => "object",
            },
            match self.mpi {
                MpiIdentification::Identified(i) => i.name(),
                MpiIdentification::NotMpi => "no MPI",
            },
            self.needed.len(),
            self.required_glibc
                .as_ref()
                .map(|v| v.render())
                .unwrap_or_else(|| "no versioned C library".into()),
        )
    }
}

/// A shared-library copy gathered at a guaranteed execution environment.
#[derive(Debug, Clone)]
pub struct LibraryCopy {
    /// The soname this copy provides.
    pub soname: String,
    /// Path it was copied from at the GEE.
    pub origin: String,
    /// The image bytes.
    pub bytes: Arc<Vec<u8>>,
    /// The copy's own recursive description.
    pub description: BinaryDescription,
}

/// Locate one shared library by soname using the §V.A fallback chain:
/// `ldd` output (caller passes it in) → `locate` → `find` over common
/// locations and `LD_LIBRARY_PATH`.
pub fn locate_library(sess: &Session<'_>, soname: &str) -> Option<String> {
    // locate: the first existing exact basename match among its hits.
    if let Some(hits) = tools::locate_exact(sess.site, soname) {
        if let Some(hit) = hits.iter().find(|p| sess.site.vfs().exists(p)) {
            return Some(hit.clone());
        }
    }
    // find over common library locations and LD_LIBRARY_PATH entries.
    let mut roots: Vec<String> = vec![
        "/lib64".into(),
        "/usr/lib64".into(),
        "/lib".into(),
        "/usr/lib".into(),
        "/opt".into(),
    ];
    roots.extend(sess.ld_library_path());
    let root_refs: Vec<&str> = roots.iter().map(String::as_str).collect();
    tools::find_name(sess.site, &root_refs, soname)
        .into_iter()
        .next()
}

/// Gather copies + descriptions of every shared library the binary at
/// `path` is linked against, recursively, at a guaranteed execution
/// environment (the source phase's collection step).
///
/// The C library itself and the dynamic loader are never copied (§IV:
/// "We copy each shared library except for the C library").
pub fn collect_libraries(
    sess: &mut Session<'_>,
    path: &str,
) -> Result<BTreeMap<String, LibraryCopy>> {
    collect_libraries_cached(sess, path, None)
}

/// [`collect_libraries`] with an optional description cache: every library
/// image is content-hashed and its recursive description is reused across
/// binaries that link the same bytes (the common case — a site's whole
/// corpus shares one MPI stack's libraries).
pub fn collect_libraries_cached(
    sess: &mut Session<'_>,
    path: &str,
    caches: Option<&crate::cache::PhaseCaches>,
) -> Result<BTreeMap<String, LibraryCopy>> {
    let mut arena = Interner::new();
    let mut out: BTreeMap<String, LibraryCopy> = BTreeMap::new();
    let mut pending: Vec<String> = vec![path.to_string()];
    let mut described: HashSet<String> = HashSet::new();
    // `DT_NEEDED` recorded per described object, so the `ldd`-fallback path
    // reuses work already done instead of reading and describing the same
    // image a second time.
    let mut needed_of: HashMap<String, Vec<IStr>> = HashMap::new();
    while let Some(obj_path) = pending.pop() {
        if !described.insert(obj_path.clone()) {
            continue;
        }
        sess.charge(0.2);
        // Primary: ldd gives sonames with locations.
        let entries: Vec<(String, Option<String>)> = match tools::ldd(sess, &obj_path) {
            LddResult::Resolved(map) => map,
            // Fallback: take DT_NEEDED ourselves and search each one.
            LddResult::NotRecognized | LddResult::NotPresent => {
                let needed = match needed_of.get(&obj_path) {
                    Some(n) => n.clone(),
                    // Not described yet (the root object): one read, one
                    // zero-copy parse, for the dependency list alone.
                    None => {
                        let bytes = sess.read_bytes(&obj_path).ok_or_else(|| {
                            FeamError::BinaryUnreadable(format!("{obj_path}: no such file"))
                        })?;
                        let f = LazyElf::parse(&bytes)
                            .map_err(|e| FeamError::BinaryUnreadable(format!("{obj_path}: {e}")))?;
                        f.needed().iter().map(|so| arena.istr(so)).collect()
                    }
                };
                needed
                    .iter()
                    .map(|so| (so.to_string(), locate_library(sess, so)))
                    .collect()
            }
        };
        for (soname, loc) in entries {
            if out.contains_key(&soname) || is_c_library(&soname) {
                continue;
            }
            let Some(loc) = loc.or_else(|| locate_library(sess, &soname)) else {
                continue; // not found even at the GEE; nothing to copy
            };
            let Some(bytes) = sess.read_bytes(&loc) else {
                continue;
            };
            let key = crate::cache::content_key_of(&bytes);
            let mut describe = |_: &mut Session<'_>| {
                BinaryDescription::from_bytes_keyed(&loc, &bytes, key, Some(&mut arena))
            };
            let description = match caches {
                Some(c) => describe_memoized(&c.bdc, sess, key, &loc, describe)?,
                None => describe(sess)?,
            };
            needed_of.insert(loc.clone(), description.needed.clone());
            out.insert(
                soname.clone(),
                LibraryCopy {
                    soname: soname.clone(),
                    origin: loc.clone(),
                    bytes,
                    description,
                },
            );
            pending.push(loc);
        }
    }
    Ok(out)
}

/// Describe through the BDC memo. Describing is pure in the bytes, so the
/// content key is a sound memo key: identical images at different paths
/// share one entry, and a served description has only its site-local
/// `path` rewritten.
pub(crate) fn describe_memoized(
    bdc: &Memo<BdcKey, Arc<BinaryDescription>>,
    sess: &mut Session<'_>,
    key: BdcKey,
    path: &str,
    describe: impl FnOnce(&mut Session<'_>) -> Result<BinaryDescription>,
) -> Result<BinaryDescription> {
    let fresh = Freshness::default();
    let d = bdc.memoize(sess, key, fresh, |s| describe(s).map(Arc::new), |_| true)?;
    let mut d = Arc::unwrap_or_clone(d);
    d.path = path.to_string();
    Ok(d)
}

/// Is this soname part of the C library family that FEAM never copies?
pub fn is_c_library(soname: &str) -> bool {
    soname.starts_with("libc.so") || soname.starts_with("ld-linux") || soname.starts_with("ld.so")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_one_mvapich2_signature() {
        let needed = v(&[
            "libmpich.so.1.2",
            "libibverbs.so.1",
            "libibumad.so.3",
            "libc.so.6",
        ]);
        assert_eq!(
            identify_mpi(&needed),
            MpiIdentification::Identified(MpiImpl::Mvapich2)
        );
    }

    #[test]
    fn table_one_mpich2_signature() {
        let needed = v(&["libmpich.so.1.2", "libmpl.so.1", "libopa.so.1", "libc.so.6"]);
        assert_eq!(
            identify_mpi(&needed),
            MpiIdentification::Identified(MpiImpl::Mpich2)
        );
    }

    #[test]
    fn table_one_openmpi_signature() {
        let needed = v(&["libmpi.so.0", "libnsl.so.1", "libutil.so.1", "libc.so.6"]);
        assert_eq!(
            identify_mpi(&needed),
            MpiIdentification::Identified(MpiImpl::OpenMpi)
        );
    }

    #[test]
    fn mpich_without_ib_is_not_mvapich() {
        // libibverbs alone (no libibumad) must not flip MPICH2 → MVAPICH2.
        let needed = v(&["libmpich.so.1.2", "libibverbs.so.1", "libc.so.6"]);
        assert_eq!(
            identify_mpi(&needed),
            MpiIdentification::Identified(MpiImpl::Mpich2)
        );
    }

    #[test]
    fn non_mpi_binary() {
        let needed = v(&["libm.so.6", "libc.so.6"]);
        assert_eq!(identify_mpi(&needed), MpiIdentification::NotMpi);
    }

    #[test]
    fn c_library_family_not_copied() {
        assert!(is_c_library("libc.so.6"));
        assert!(is_c_library("ld-linux-x86-64.so.2"));
        assert!(!is_c_library("libm.so.6"));
        assert!(!is_c_library("libmpi.so.0"));
    }

    #[test]
    fn description_from_synthetic_binary() {
        let mut spec = feam_elf::ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = v(&["libmpi.so.0", "libnsl.so.1", "libutil.so.1", "libc.so.6"]);
        spec.imports = vec![feam_elf::ImportSpec::versioned(
            "fopen64",
            "libc.so.6",
            "GLIBC_2.3.4",
        )];
        spec.comments = vec!["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".into()];
        let bytes = spec.build().unwrap();
        let d = BinaryDescription::from_bytes("/tmp/app", &bytes).unwrap();
        assert_eq!(d.format, "ELF");
        assert_eq!(d.mpi, MpiIdentification::Identified(MpiImpl::OpenMpi));
        assert_eq!(d.required_glibc.as_ref().unwrap().render(), "GLIBC_2.3.4");
        assert!(d.is_dynamic);
        assert!(d.build_env.compiler.as_deref().unwrap().starts_with("GCC"));
        assert!(d.summary().contains("Open MPI"));
    }

    #[test]
    fn shared_library_description_extracts_embedded_version() {
        let mut spec =
            feam_elf::ElfSpec::shared_library("libdemo.so.2.4", Machine::X86_64, Class::Elf64);
        spec.needed = v(&["libc.so.6"]);
        let bytes = spec.build().unwrap();
        let d = BinaryDescription::from_bytes("/lib/libdemo.so.2.4", &bytes).unwrap();
        assert_eq!(d.kind, FileKind::SharedObject);
        assert_eq!(d.soname.as_deref(), Some("libdemo.so.2.4"));
        let emb = d.embedded_version.unwrap();
        assert_eq!(emb.major(), Some(2));
        assert_eq!(emb.minor(), Some(4));
    }

    #[test]
    fn garbage_input_is_error() {
        assert!(BinaryDescription::from_bytes("/tmp/x", &[0u8; 32]).is_err());
    }
}
