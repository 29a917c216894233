//! # feam-provenance — build-provenance fingerprinting
//!
//! When a binary is cooperative, FEAM's Binary Description Component reads
//! its provenance straight off direct evidence: `.comment` strings name the
//! compiler, `DT_NEEDED` names the MPI stack, `.gnu.version_r` names the C
//! library. Field binaries are frequently *not* cooperative — stripped
//! (section headers gone, `.comment` unreachable), statically linked (no
//! dynamic section at all) or cross-compiled (comments dropped by the
//! packaging). This crate is the fallback evidence tier for those shapes:
//!
//! * [`db::SignatureDb`] — a seeded, versioned database of compiler-family
//!   and compiler-version byte signatures over executable code, MPI runtime
//!   code fingerprints, and runtime-library function-name shapes. The
//!   builtin database is enumerated from the workspace's shared vocabulary
//!   ([`feam_sim::vocab`]) through the same stamp physics the simulated
//!   toolchain emits ([`feam_sim::stamp`]) — matching real bytes, not
//!   strings smuggled through a side channel.
//! * [`matcher`] — scans a [`feam_elf::LazyElf`] through three tiers
//!   (version signature → family idiom → symbol shape) and emits a
//!   [`report::ProvenanceReport`] whose per-claim confidences are
//!   calibrated to the tier that produced them.
//!
//! Calibration contract: direct evidence is worth `1.0` in the prediction
//! model, so every provenance claim is strictly below it — `0.9` for an
//! exact version-signature match, `0.7` for a family-idiom-only match,
//! `0.5` for symbol-shape heuristics. A provenance claim can therefore
//! never outrank direct evidence, and determinants that consume one
//! degrade to `Unknown` with calibrated confidence instead of failing.
//!
//! ```
//! use feam_provenance::{analyze, EvidenceTier};
//! use feam_sim::compile::{compile_variant, BinaryVariant, ProgramSpec};
//! use feam_sim::mpi::{MpiImpl, MpiStack, Network};
//! use feam_sim::site::{OsInfo, Site, SiteConfig};
//! use feam_sim::toolchain::{Compiler, CompilerFamily, Language};
//!
//! let mut cfg = SiteConfig::new("build", feam_elf::HostArch::X86_64,
//!     OsInfo::new("CentOS", "5.6", "2.6.18-238.el5"), "2.5", 3);
//! cfg.compilers = vec![Compiler::new(CompilerFamily::Gnu, "4.1.2")];
//! cfg.stacks = vec![(MpiStack::new(MpiImpl::OpenMpi, "1.4",
//!     Compiler::new(CompilerFamily::Gnu, "4.1.2"), Network::Ethernet), true)];
//! let site = Site::build(cfg);
//! let stack = site.stacks[0].clone();
//! let bin = compile_variant(&site, Some(&stack),
//!     &ProgramSpec::new("bt.A.4", Language::Fortran), 7, BinaryVariant::Stripped).unwrap();
//!
//! let report = analyze(&feam_elf::LazyElf::parse(&bin.image).unwrap());
//! let compiler = report.compiler.unwrap();
//! assert_eq!(compiler.family, CompilerFamily::Gnu);
//! assert_eq!(compiler.version.as_deref(), Some("4.1.2"));
//! assert_eq!(compiler.tier, EvidenceTier::VersionSignature);
//! assert!(report.confidence < 1.0);
//! ```

pub mod db;
pub mod matcher;
pub mod report;

pub use db::{CompilerSignature, MpiSignature, SignatureDb, DB_VERSION};
pub use matcher::analyze;
#[cfg(feature = "eager")]
pub use matcher::analyze_eager;
pub use report::{CompilerClaim, EvidenceTier, MpiClaim, ProvenanceReport, RuntimeClaim};
