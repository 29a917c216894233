//! # feam-elf — from-scratch ELF reader and writer
//!
//! The substrate under the FEAM reproduction's Binary Description Component:
//! parses and synthesizes ELF32/ELF64 images in either byte order, with the
//! tables FEAM's prediction model depends on:
//!
//! * the file header (ISA, word length, file kind — determinant 1),
//! * the dynamic section (`DT_NEEDED`, `DT_SONAME`, search paths —
//!   determinants 2 and 4),
//! * GNU symbol versioning (`.gnu.version_r` / `.gnu.version_d` /
//!   `.gnu.version` — determinant 3, the required C library version, and
//!   the loader model's per-symbol ABI checks),
//! * the `.comment` provenance section (`readelf -p .comment`).
//!
//! The writer ([`builder::ElfSpec`]) produces conforming images that the
//! reader ([`lazy::LazyElf`]) digests through *both* the section-header
//! route (binutils-style) and the `PT_DYNAMIC` segment route (ld.so-style),
//! so stripped binaries exercise a distinct code path, exactly as the
//! paper's `ldd`-sometimes-fails fallback logic requires.
//!
//! The production reader is zero-copy: every string it exposes borrows
//! from the input image, and `.comment` decoding is deferred until first
//! access. The historical eager reader (`reader::ElfFile`) is kept
//! behind the test-only `eager` feature as the differential oracle for
//! `tests/elf_differential.rs`.
//!
//! ```
//! use feam_elf::{Class, ElfSpec, ImportSpec, LazyElf, Machine};
//!
//! // Synthesize a dynamic executable ...
//! let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
//! spec.needed = vec!["libmpi.so.0".into(), "libc.so.6".into()];
//! spec.imports = vec![ImportSpec::versioned("fopen64", "libc.so.6", "GLIBC_2.3.4")];
//! let bytes = spec.build().unwrap();
//!
//! // ... and read back exactly what FEAM's BDC needs, without copying.
//! let f = LazyElf::parse(&bytes).unwrap();
//! assert_eq!(f.needed(), &["libmpi.so.0", "libc.so.6"]);
//! assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.3.4");
//! ```

pub mod builder;
pub mod check;
pub mod comment;
pub mod dynamic;
pub mod endian;
pub mod error;
pub mod header;
pub mod ident;
pub mod lazy;
pub mod machine;
pub mod notes;
pub mod program;
#[cfg(any(test, feature = "eager"))]
pub mod reader;
pub mod render;
pub mod section;
pub mod soname;
pub mod strtab;
pub mod symbols;
pub mod versions;

pub use builder::{strip_section_headers, DefinedVersion, ElfSpec, ExportSpec, ImportSpec};
pub use endian::Endian;
pub use error::{Error, Result};
pub use header::FileKind;
pub use ident::Class;
pub use lazy::{EvidenceSurvey, LazyElf, SymView};
pub use machine::{HostArch, Machine};
pub use notes::{AbiTag, AbiTagOs};
#[cfg(any(test, feature = "eager"))]
pub use reader::ElfFile;
pub use soname::Soname;
pub use versions::{
    VersionDef, VersionDefV, VersionName, VersionRef, VersionRefEntry, VersionRefEntryV,
    VersionRefV,
};
