//! Byte-exact ELF writer.
//!
//! The FEAM evaluation needs *real* binaries — the BDC runs the same parsing
//! code paths a field deployment would — so the workload generator builds
//! every benchmark binary and every site library through this module. The
//! output is a conforming ELF image with program headers, section headers,
//! a SysV hash table, dynamic symbols, GNU version tables and a `.comment`
//! section; both the section route (`objdump`/`readelf`) and the segment
//! route (`ld.so`) of the eager `reader::ElfFile` can digest it.

use crate::comment::encode_comment;
use crate::dynamic::{self, dyn_size, DynEntry, Tag};
use crate::endian::Endian;
use crate::error::{Error, Result};
use crate::header::{ehdr_size, ElfHeader, FileKind};
use crate::ident::{Class, Ident, OsAbi};
use crate::machine::Machine;
use crate::notes::{abi_tag_note, encode_notes, AbiTag};
use crate::program::{flags as pflags, phent_size, ProgramHeader, SegmentKind};
use crate::section::{shent_size, SectionHeader, SectionKind};
use crate::strtab::StrTabBuilder;
use crate::symbols::{encode_symbol, Binding, SymKind, Symbol, SHN_ABS, SHN_UNDEF};
use crate::versions::{
    encode_verdef, encode_verneed, encode_versym, VersionDef, VersionRef, VersionRefEntry,
    VER_NDX_FIRST_FREE, VER_NDX_GLOBAL,
};

/// An imported (undefined) symbol.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ImportSpec {
    /// Symbol name, e.g. `MPI_Init` or `memcpy`.
    pub symbol: String,
    /// Soname of the library expected to provide it, e.g. `libc.so.6`.
    /// Added to `DT_NEEDED` automatically when absent.
    pub file: String,
    /// Version the symbol is bound to, e.g. `GLIBC_2.2.5`; `None` for an
    /// unversioned reference.
    pub version: Option<String>,
    /// Weak reference (missing provider is tolerated by the loader).
    pub weak: bool,
}

impl ImportSpec {
    /// Convenience constructor for a strong, versioned import.
    pub fn versioned(symbol: &str, file: &str, version: &str) -> Self {
        ImportSpec {
            symbol: symbol.into(),
            file: file.into(),
            version: Some(version.into()),
            weak: false,
        }
    }

    /// Convenience constructor for a strong, unversioned import.
    pub fn plain(symbol: &str, file: &str) -> Self {
        ImportSpec {
            symbol: symbol.into(),
            file: file.into(),
            version: None,
            weak: false,
        }
    }
}

/// An exported (defined) symbol.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExportSpec {
    /// Symbol name.
    pub symbol: String,
    /// Version definition the symbol belongs to, if any.
    pub version: Option<String>,
}

impl ExportSpec {
    /// Convenience constructor.
    pub fn new(symbol: &str, version: Option<&str>) -> Self {
        ExportSpec {
            symbol: symbol.into(),
            version: version.map(Into::into),
        }
    }
}

/// A version this object defines even if no listed export carries it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DefinedVersion {
    pub name: String,
    /// Predecessor versions in the inheritance chain.
    pub parents: Vec<String>,
}

/// Full specification of an ELF image to synthesize.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ElfSpec {
    pub class: Class,
    pub endian: Endian,
    pub machine: Machine,
    /// `Executable` or `SharedObject`.
    pub kind: FileKind,
    /// Program interpreter; defaults per class for executables.
    pub interp: Option<String>,
    /// `DT_SONAME` (shared libraries).
    pub soname: Option<String>,
    /// `DT_NEEDED` entries, in link order.
    pub needed: Vec<String>,
    /// `DT_RPATH`.
    pub rpath: Option<String>,
    /// `DT_RUNPATH`.
    pub runpath: Option<String>,
    /// Undefined symbols; grouped into `.gnu.version_r` by (file, version).
    pub imports: Vec<ImportSpec>,
    /// Defined symbols; versioned ones populate `.gnu.version_d`.
    pub exports: Vec<ExportSpec>,
    /// Extra version definitions with inheritance chains.
    pub defined_versions: Vec<DefinedVersion>,
    /// Symbol-less version references `(file, version)`: requirements
    /// recorded in `.gnu.version_r` without a corresponding undefined
    /// symbol (legal and common — e.g. a `GLIBCXX_3.4.11` requirement
    /// carried only by the version table).
    pub extra_version_refs: Vec<(String, String)>,
    /// `NT_GNU_ABI_TAG` note (`.note.ABI-tag`): the OS and minimum kernel
    /// version the binary targets.
    pub abi_tag: Option<AbiTag>,
    /// `.comment` strings (compiler provenance).
    pub comments: Vec<String>,
    /// Size of the synthetic `.text` payload in bytes (models file size).
    pub text_size: usize,
    /// Bytes written at the head of `.text` — the compiler/runtime code
    /// idiom (see `feam_sim::stamp`). `.text` grows to fit when the stamp
    /// exceeds `text_size`. Because the entry point addresses `.text`,
    /// these bytes stay recoverable even from a fully stripped image.
    pub text_stamp: Vec<u8>,
    /// Emit a statically linked executable: no interpreter, no dynamic
    /// section or symbols, no version tables, no `PT_INTERP`/`PT_DYNAMIC`.
    /// Incompatible with the dynamic-linking fields.
    pub static_link: bool,
}

impl Default for ElfSpec {
    fn default() -> Self {
        ElfSpec {
            class: Class::Elf64,
            endian: Endian::Little,
            machine: Machine::X86_64,
            kind: FileKind::Executable,
            interp: None,
            soname: None,
            needed: Vec::new(),
            rpath: None,
            runpath: None,
            imports: Vec::new(),
            exports: Vec::new(),
            defined_versions: Vec::new(),
            extra_version_refs: Vec::new(),
            abi_tag: None,
            comments: Vec::new(),
            text_size: 256,
            text_stamp: Vec::new(),
            static_link: false,
        }
    }
}

impl ElfSpec {
    /// Start a spec for a dynamic executable.
    pub fn executable(machine: Machine, class: Class) -> Self {
        ElfSpec {
            machine,
            class,
            kind: FileKind::Executable,
            ..Default::default()
        }
    }

    /// Start a spec for a shared library with the given soname.
    pub fn shared_library(soname: &str, machine: Machine, class: Class) -> Self {
        ElfSpec {
            machine,
            class,
            kind: FileKind::SharedObject,
            soname: Some(soname.into()),
            ..Default::default()
        }
    }

    /// Synthesize the image.
    pub fn build(&self) -> Result<Vec<u8>> {
        build(self)
    }
}

fn default_interp(class: Class) -> &'static str {
    match class {
        Class::Elf64 => "/lib64/ld-linux-x86-64.so.2",
        Class::Elf32 => "/lib/ld-linux.so.2",
    }
}

fn base_vaddr(kind: FileKind, class: Class) -> u64 {
    match (kind, class) {
        (FileKind::Executable, Class::Elf64) => 0x40_0000,
        (FileKind::Executable, Class::Elf32) => 0x804_8000,
        _ => 0,
    }
}

fn align_to(v: usize, a: usize) -> usize {
    v.div_ceil(a) * a
}

struct SectionPlan {
    name: &'static str,
    kind: SectionKind,
    flags: u64,
    bytes: Vec<u8>,
    link_name: Option<&'static str>,
    info: u32,
    entsize: u64,
    align: usize,
}

/// Build the image for `spec`. See module docs for the layout.
pub fn build(spec: &ElfSpec) -> Result<Vec<u8>> {
    if spec.kind != FileKind::Executable && spec.kind != FileKind::SharedObject {
        return Err(Error::InvalidSpec(format!(
            "builder only produces executables and shared objects, got {:?}",
            spec.kind
        )));
    }
    if spec.kind == FileKind::SharedObject && spec.soname.is_none() {
        return Err(Error::InvalidSpec(
            "shared object spec requires a soname".into(),
        ));
    }
    if spec.static_link {
        if spec.kind != FileKind::Executable {
            return Err(Error::InvalidSpec(
                "static_link only applies to executables".into(),
            ));
        }
        if !spec.needed.is_empty()
            || !spec.imports.is_empty()
            || !spec.exports.is_empty()
            || !spec.extra_version_refs.is_empty()
            || !spec.defined_versions.is_empty()
            || spec.soname.is_some()
            || spec.interp.is_some()
        {
            return Err(Error::InvalidSpec(
                "static_link excludes dynamic-linking fields \
                 (needed/imports/exports/versions/soname/interp)"
                    .into(),
            ));
        }
    }
    let class = spec.class;
    let e = spec.endian;

    // ---- dynamic string table and version index assignment ----------------
    let mut dynstr = StrTabBuilder::new();

    // DT_NEEDED list: spec order, then auto-added import providers.
    let mut needed: Vec<String> = spec.needed.clone();
    for imp in &spec.imports {
        if !needed.contains(&imp.file) {
            needed.push(imp.file.clone());
        }
    }
    for (file, _) in &spec.extra_version_refs {
        if !needed.contains(file) {
            needed.push(file.clone());
        }
    }
    let needed_offs: Vec<u32> = needed.iter().map(|n| dynstr.add(n)).collect();
    let soname_off = spec.soname.as_ref().map(|s| dynstr.add(s));
    let rpath_off = spec.rpath.as_ref().map(|s| dynstr.add(s));
    let runpath_off = spec.runpath.as_ref().map(|s| dynstr.add(s));

    // Version definitions: base def (index 1) plus named defs from 2 up.
    let mut def_names: Vec<DefinedVersion> = Vec::new();
    for dv in &spec.defined_versions {
        if !def_names.iter().any(|d| d.name == dv.name) {
            def_names.push(dv.clone());
        }
    }
    for exp in &spec.exports {
        if let Some(v) = &exp.version {
            if !def_names.iter().any(|d| &d.name == v) {
                def_names.push(DefinedVersion {
                    name: v.clone(),
                    parents: Vec::new(),
                });
            }
        }
    }
    let mut next_index = VER_NDX_FIRST_FREE;
    let mut verdefs: Vec<VersionDef> = Vec::new();
    if !def_names.is_empty() {
        let base_name = spec
            .soname
            .clone()
            .ok_or_else(|| Error::InvalidSpec("version definitions require a soname".into()))?;
        verdefs.push(VersionDef {
            name: base_name,
            index: VER_NDX_GLOBAL,
            is_base: true,
            parents: Vec::new(),
        });
        for dv in &def_names {
            verdefs.push(VersionDef {
                name: dv.name.clone(),
                index: next_index,
                is_base: false,
                parents: dv.parents.clone(),
            });
            next_index += 1;
        }
    }
    let def_index = |name: &str| -> Option<u16> {
        verdefs
            .iter()
            .find(|d| !d.is_base && d.name == name)
            .map(|d| d.index)
    };

    // Version references: group imports by file, preserving encounter order.
    let mut verneeds: Vec<VersionRef> = Vec::new();
    for imp in &spec.imports {
        let Some(ver) = &imp.version else { continue };
        let rec = match verneeds.iter_mut().find(|r| r.file == imp.file) {
            Some(r) => r,
            None => {
                verneeds.push(VersionRef {
                    file: imp.file.clone(),
                    versions: Vec::new(),
                });
                verneeds.last_mut().expect("just pushed")
            }
        };
        if !rec.versions.iter().any(|v| v.name == *ver) {
            rec.versions.push(VersionRefEntry {
                name: ver.clone(),
                index: next_index,
                weak: imp.weak,
            });
            next_index += 1;
        }
    }
    for (file, ver) in &spec.extra_version_refs {
        let rec = match verneeds.iter_mut().find(|r| &r.file == file) {
            Some(r) => r,
            None => {
                verneeds.push(VersionRef {
                    file: file.clone(),
                    versions: Vec::new(),
                });
                verneeds.last_mut().expect("just pushed")
            }
        };
        if !rec.versions.iter().any(|v| &v.name == ver) {
            rec.versions.push(VersionRefEntry {
                name: ver.clone(),
                index: next_index,
                weak: false,
            });
            next_index += 1;
        }
    }
    let ref_index = |file: &str, name: &str| -> Option<u16> {
        verneeds
            .iter()
            .find(|r| r.file == file)
            .and_then(|r| r.versions.iter().find(|v| v.name == name))
            .map(|v| v.index)
    };

    // ---- symbol table + versym --------------------------------------------
    let mut syms: Vec<Symbol> = vec![Symbol {
        name_off: 0,
        binding: Binding::Local,
        kind: SymKind::NoType,
        shndx: SHN_UNDEF,
        value: 0,
        size: 0,
    }];
    let mut versym: Vec<u16> = vec![0];
    for imp in &spec.imports {
        syms.push(Symbol {
            name_off: dynstr.add(&imp.symbol),
            binding: if imp.weak {
                Binding::Weak
            } else {
                Binding::Global
            },
            kind: SymKind::Func,
            shndx: SHN_UNDEF,
            value: 0,
            size: 0,
        });
        let idx = match &imp.version {
            Some(v) => ref_index(&imp.file, v)
                .ok_or_else(|| Error::InvalidSpec(format!("internal: version {v} not assigned")))?,
            None => VER_NDX_GLOBAL,
        };
        versym.push(idx);
    }
    for exp in &spec.exports {
        syms.push(Symbol {
            name_off: dynstr.add(&exp.symbol),
            binding: Binding::Global,
            kind: SymKind::Func,
            shndx: SHN_ABS,
            value: 0x1000,
            size: 16,
        });
        let idx = match &exp.version {
            Some(v) => def_index(v)
                .ok_or_else(|| Error::InvalidSpec(format!("internal: version {v} not assigned")))?,
            None => VER_NDX_GLOBAL,
        };
        versym.push(idx);
    }

    // ---- encode variable-size tables (interning names first) --------------
    let verneed_bytes = encode_verneed(&verneeds, &mut dynstr, e);
    let verdef_bytes = encode_verdef(&verdefs, &mut dynstr, e);
    let dynstr_bytes = dynstr.into_bytes();
    let mut dynsym_bytes = Vec::new();
    for s in &syms {
        dynsym_bytes.extend(encode_symbol(s, class, e));
    }
    let versym_bytes = encode_versym(&versym, e);

    // SysV hash table: one bucket, nchain = nsyms. Enough for tools that
    // only need the symbol count (including our segment-route reader).
    let mut hash_bytes = Vec::new();
    e.put_u32(&mut hash_bytes, 1); // nbucket
    e.put_u32(&mut hash_bytes, syms.len() as u32); // nchain
    e.put_u32(&mut hash_bytes, 0); // bucket[0]
    for _ in 0..syms.len() {
        e.put_u32(&mut hash_bytes, 0); // chain
    }

    let comment_bytes = if spec.comments.is_empty() {
        Vec::new()
    } else {
        encode_comment(&spec.comments)
    };
    // Deterministic filler; the size models the real on-disk footprint used
    // by the bundle-size statistics. The head carries the toolchain's code
    // stamp so provenance matching has real bytes to work on.
    let mut text_bytes = vec![0xC3u8; spec.text_size.max(1).max(spec.text_stamp.len())];
    text_bytes[..spec.text_stamp.len()].copy_from_slice(&spec.text_stamp);

    let interp_str = if spec.static_link {
        None
    } else {
        match spec.kind {
            FileKind::Executable => Some(
                spec.interp
                    .clone()
                    .unwrap_or_else(|| default_interp(class).to_string()),
            ),
            _ => spec.interp.clone(),
        }
    };

    // ---- dynamic section size (must be known before layout) ---------------
    let mut n_dyn = needed.len() + 4; // NEEDED* + HASH,STRTAB,SYMTAB,SYMENT
    n_dyn += 1; // STRSZ
    if soname_off.is_some() {
        n_dyn += 1;
    }
    if rpath_off.is_some() {
        n_dyn += 1;
    }
    if runpath_off.is_some() {
        n_dyn += 1;
    }
    if !versym_bytes.is_empty() && (!verneeds.is_empty() || !verdefs.is_empty()) {
        n_dyn += 1; // VERSYM
    }
    if !verneeds.is_empty() {
        n_dyn += 2; // VERNEED, VERNEEDNUM
    }
    if !verdefs.is_empty() {
        n_dyn += 2; // VERDEF, VERDEFNUM
    }
    let dynamic_size = (n_dyn + 1) * dyn_size(class); // + DT_NULL

    // ---- plan sections ------------------------------------------------------
    const SHF_WRITE: u64 = 1;
    const SHF_ALLOC: u64 = 2;
    const SHF_EXEC: u64 = 4;
    let has_versions = !verneeds.is_empty() || !verdefs.is_empty();
    let mut plans: Vec<SectionPlan> = Vec::new();
    if let Some(ip) = &interp_str {
        let mut b = ip.as_bytes().to_vec();
        b.push(0);
        plans.push(SectionPlan {
            name: ".interp",
            kind: SectionKind::ProgBits,
            flags: SHF_ALLOC,
            bytes: b,
            link_name: None,
            info: 0,
            entsize: 0,
            align: 1,
        });
    }
    if let Some(tag) = &spec.abi_tag {
        plans.push(SectionPlan {
            name: ".note.ABI-tag",
            kind: SectionKind::Note,
            flags: SHF_ALLOC,
            bytes: encode_notes(&[abi_tag_note(tag, e)], e),
            link_name: None,
            info: 0,
            entsize: 0,
            align: 4,
        });
    }
    if !spec.static_link {
        plans.push(SectionPlan {
            name: ".hash",
            kind: SectionKind::Hash,
            flags: SHF_ALLOC,
            bytes: hash_bytes,
            link_name: Some(".dynsym"),
            info: 0,
            entsize: 4,
            align: class.word_size(),
        });
        plans.push(SectionPlan {
            name: ".dynsym",
            kind: SectionKind::DynSym,
            flags: SHF_ALLOC,
            bytes: dynsym_bytes,
            link_name: Some(".dynstr"),
            info: 1, // one local symbol (the null entry)
            entsize: crate::symbols::sym_size(class) as u64,
            align: class.word_size(),
        });
        plans.push(SectionPlan {
            name: ".dynstr",
            kind: SectionKind::StrTab,
            flags: SHF_ALLOC,
            bytes: dynstr_bytes,
            link_name: None,
            info: 0,
            entsize: 0,
            align: 1,
        });
        if has_versions {
            plans.push(SectionPlan {
                name: ".gnu.version",
                kind: SectionKind::GnuVerSym,
                flags: SHF_ALLOC,
                bytes: versym_bytes,
                link_name: Some(".dynsym"),
                info: 0,
                entsize: 2,
                align: 2,
            });
        }
        if !verneeds.is_empty() {
            plans.push(SectionPlan {
                name: ".gnu.version_r",
                kind: SectionKind::GnuVerNeed,
                flags: SHF_ALLOC,
                bytes: verneed_bytes,
                link_name: Some(".dynstr"),
                info: verneeds.len() as u32,
                entsize: 0,
                align: class.word_size(),
            });
        }
        if !verdefs.is_empty() {
            plans.push(SectionPlan {
                name: ".gnu.version_d",
                kind: SectionKind::GnuVerDef,
                flags: SHF_ALLOC,
                bytes: verdef_bytes,
                link_name: Some(".dynstr"),
                info: verdefs.len() as u32,
                entsize: 0,
                align: class.word_size(),
            });
        }
        plans.push(SectionPlan {
            name: ".dynamic",
            kind: SectionKind::Dynamic,
            flags: SHF_ALLOC | SHF_WRITE,
            bytes: vec![0; dynamic_size], // patched after layout
            link_name: Some(".dynstr"),
            info: 0,
            entsize: dyn_size(class) as u64,
            align: class.word_size(),
        });
    }
    plans.push(SectionPlan {
        name: ".text",
        kind: SectionKind::ProgBits,
        flags: SHF_ALLOC | SHF_EXEC,
        bytes: text_bytes,
        link_name: None,
        info: 0,
        entsize: 0,
        align: 16,
    });
    if !comment_bytes.is_empty() {
        plans.push(SectionPlan {
            name: ".comment",
            kind: SectionKind::ProgBits,
            flags: 0,
            bytes: comment_bytes,
            link_name: None,
            info: 0,
            entsize: 1,
            align: 1,
        });
    }

    // ---- layout -------------------------------------------------------------
    let base = base_vaddr(spec.kind, class);
    let ehdr_len = ehdr_size(class);
    // PHDR, LOAD (+DYNAMIC) (+INTERP) (+NOTE)
    let n_phdrs = 2
        + usize::from(!spec.static_link)
        + usize::from(interp_str.is_some())
        + usize::from(spec.abi_tag.is_some());
    let phdr_len = n_phdrs * phent_size(class);
    let mut cursor = ehdr_len + phdr_len;
    let mut offsets: Vec<usize> = Vec::with_capacity(plans.len());
    for p in &plans {
        cursor = align_to(cursor, p.align.max(1));
        offsets.push(cursor);
        cursor += p.bytes.len();
    }
    let load_end = cursor; // everything so far is mapped by PT_LOAD

    // .shstrtab and the section header table live past the load segment.
    let mut shstr = StrTabBuilder::new();
    let mut name_offs: Vec<u32> = Vec::with_capacity(plans.len() + 2);
    for p in &plans {
        name_offs.push(shstr.add(p.name));
    }
    let shstr_name_off = shstr.add(".shstrtab");
    let shstr_bytes = shstr.into_bytes();
    let shstr_off = align_to(cursor, 1);
    cursor = shstr_off + shstr_bytes.len();
    let shoff = align_to(cursor, class.word_size());
    let n_sections = plans.len() + 2; // + null + .shstrtab
    let total = shoff + n_sections * shent_size(class);

    fn find_plan(plans: &[SectionPlan], name: &str) -> usize {
        plans
            .iter()
            .position(|p| p.name == name)
            .expect("section plan must exist")
    }
    let plan_off = |name: &str| offsets[find_plan(&plans, name)];
    let plan_vaddr = |name: &str| base + plan_off(name) as u64;

    // Pull out the offsets needed after `plans` is mutated below.
    let interp_meta = interp_str.as_ref().map(|_| {
        (
            plan_off(".interp"),
            plans[find_plan(&plans, ".interp")].bytes.len(),
        )
    });
    let note_meta = spec.abi_tag.as_ref().map(|_| {
        (
            plan_off(".note.ABI-tag"),
            plans[find_plan(&plans, ".note.ABI-tag")].bytes.len(),
        )
    });
    let text_off = plan_off(".text");
    let dyn_meta = (!spec.static_link).then(|| {
        (
            plan_off(".dynamic"),
            plans[find_plan(&plans, ".dynstr")].bytes.len(),
        )
    });

    // ---- dynamic section content (now that vaddrs are known) ---------------
    let mut dyn_len = 0usize;
    if let Some((_, dynstr_len)) = dyn_meta {
        let mut dents: Vec<DynEntry> = Vec::new();
        for off in &needed_offs {
            dents.push(DynEntry {
                tag: Tag::Needed,
                value: *off as u64,
            });
        }
        if let Some(off) = soname_off {
            dents.push(DynEntry {
                tag: Tag::SoName,
                value: off as u64,
            });
        }
        if let Some(off) = rpath_off {
            dents.push(DynEntry {
                tag: Tag::RPath,
                value: off as u64,
            });
        }
        if let Some(off) = runpath_off {
            dents.push(DynEntry {
                tag: Tag::RunPath,
                value: off as u64,
            });
        }
        dents.push(DynEntry {
            tag: Tag::Hash,
            value: plan_vaddr(".hash"),
        });
        dents.push(DynEntry {
            tag: Tag::StrTab,
            value: plan_vaddr(".dynstr"),
        });
        dents.push(DynEntry {
            tag: Tag::SymTab,
            value: plan_vaddr(".dynsym"),
        });
        dents.push(DynEntry {
            tag: Tag::StrSz,
            value: dynstr_len as u64,
        });
        dents.push(DynEntry {
            tag: Tag::SymEnt,
            value: crate::symbols::sym_size(class) as u64,
        });
        if has_versions {
            dents.push(DynEntry {
                tag: Tag::VerSym,
                value: plan_vaddr(".gnu.version"),
            });
        }
        if !verneeds.is_empty() {
            dents.push(DynEntry {
                tag: Tag::VerNeed,
                value: plan_vaddr(".gnu.version_r"),
            });
            dents.push(DynEntry {
                tag: Tag::VerNeedNum,
                value: verneeds.len() as u64,
            });
        }
        if !verdefs.is_empty() {
            dents.push(DynEntry {
                tag: Tag::VerDef,
                value: plan_vaddr(".gnu.version_d"),
            });
            dents.push(DynEntry {
                tag: Tag::VerDefNum,
                value: verdefs.len() as u64,
            });
        }
        let dyn_bytes = dynamic::encode_entries(&dents, class, e);
        debug_assert_eq!(
            dyn_bytes.len(),
            dynamic_size,
            "dynamic size precomputation mismatch"
        );
        let dyn_plan = find_plan(&plans, ".dynamic");
        dyn_len = dyn_bytes.len();
        plans[dyn_plan].bytes = dyn_bytes;
    }

    // ---- emit ---------------------------------------------------------------
    let entry = base + text_off as u64;
    let header = ElfHeader {
        ident: Ident {
            class,
            endian: e,
            version: 1,
            osabi: OsAbi::SysV,
            abi_version: 0,
        },
        kind: spec.kind,
        machine: spec.machine,
        version: 1,
        entry,
        phoff: ehdr_len as u64,
        shoff: shoff as u64,
        flags: 0,
        phentsize: phent_size(class) as u16,
        phnum: n_phdrs as u16,
        shentsize: shent_size(class) as u16,
        shnum: n_sections as u16,
        shstrndx: (n_sections - 1) as u16,
    };

    let mut out = Vec::with_capacity(total);
    out.extend(header.to_bytes());

    // Program headers.
    let phdrs = {
        let mut v = Vec::with_capacity(n_phdrs);
        v.push(ProgramHeader {
            kind: SegmentKind::Phdr,
            flags: pflags::R,
            offset: ehdr_len as u64,
            vaddr: base + ehdr_len as u64,
            paddr: base + ehdr_len as u64,
            filesz: phdr_len as u64,
            memsz: phdr_len as u64,
            align: class.word_size() as u64,
        });
        if let Some((ioff, isz)) = interp_meta {
            let off = ioff as u64;
            let sz = isz as u64;
            v.push(ProgramHeader {
                kind: SegmentKind::Interp,
                flags: pflags::R,
                offset: off,
                vaddr: base + off,
                paddr: base + off,
                filesz: sz,
                memsz: sz,
                align: 1,
            });
        }
        if let Some((noff, nsz)) = note_meta {
            let off = noff as u64;
            let sz = nsz as u64;
            v.push(ProgramHeader {
                kind: SegmentKind::Note,
                flags: pflags::R,
                offset: off,
                vaddr: base + off,
                paddr: base + off,
                filesz: sz,
                memsz: sz,
                align: 4,
            });
        }
        v.push(ProgramHeader {
            kind: SegmentKind::Load,
            flags: pflags::R | pflags::X,
            offset: 0,
            vaddr: base,
            paddr: base,
            filesz: load_end as u64,
            memsz: load_end as u64,
            align: 0x1000,
        });
        if let Some((dynamic_off, _)) = dyn_meta {
            let doff = dynamic_off as u64;
            let dsz = dyn_len as u64;
            v.push(ProgramHeader {
                kind: SegmentKind::Dynamic,
                flags: pflags::R | pflags::W,
                offset: doff,
                vaddr: base + doff,
                paddr: base + doff,
                filesz: dsz,
                memsz: dsz,
                align: class.word_size() as u64,
            });
        }
        v
    };
    for p in &phdrs {
        out.extend(p.to_bytes(class, e));
    }

    // Section contents.
    for (i, p) in plans.iter().enumerate() {
        while out.len() < offsets[i] {
            out.push(0);
        }
        out.extend_from_slice(&p.bytes);
    }
    while out.len() < shstr_off {
        out.push(0);
    }
    out.extend_from_slice(&shstr_bytes);
    while out.len() < shoff {
        out.push(0);
    }

    // Section header table.
    let null_sh = SectionHeader {
        name_off: 0,
        kind: SectionKind::Null,
        flags: 0,
        addr: 0,
        offset: 0,
        size: 0,
        link: 0,
        info: 0,
        addralign: 0,
        entsize: 0,
    };
    out.extend(null_sh.to_bytes(class, e));
    for (i, p) in plans.iter().enumerate() {
        let alloc = p.flags & SHF_ALLOC != 0;
        let sh = SectionHeader {
            name_off: name_offs[i],
            kind: p.kind,
            flags: p.flags,
            addr: if alloc { base + offsets[i] as u64 } else { 0 },
            offset: offsets[i] as u64,
            size: p.bytes.len() as u64,
            link: p.link_name.map_or(0, |n| (find_plan(&plans, n) + 1) as u32),
            info: p.info,
            addralign: p.align as u64,
            entsize: p.entsize,
        };
        out.extend(sh.to_bytes(class, e));
    }
    let shstr_sh = SectionHeader {
        name_off: shstr_name_off,
        kind: SectionKind::StrTab,
        flags: 0,
        addr: 0,
        offset: shstr_off as u64,
        size: shstr_bytes.len() as u64,
        link: 0,
        info: 0,
        addralign: 1,
        entsize: 0,
    };
    out.extend(shstr_sh.to_bytes(class, e));
    debug_assert_eq!(out.len(), total);
    Ok(out)
}

/// What `strip` leaves behind for the loader: zero the section-header
/// references in the ELF header (`e_shoff`, `e_shnum`, `e_shstrndx`) so
/// only the program-header (segment) route remains. Section-route-only
/// evidence — `.comment` provenance above all — becomes unreachable,
/// while `DT_NEEDED`, dynamic symbols and version tables survive through
/// `PT_DYNAMIC`. Class- and endian-aware; fails on non-ELF input.
pub fn strip_section_headers(bytes: &mut [u8]) -> Result<()> {
    let ident = Ident::parse(bytes)?;
    let e = ident.endian;
    match ident.class {
        // e_shoff / e_shnum / e_shstrndx field offsets per class.
        Class::Elf64 => {
            e.set_u64(bytes, 40, 0);
            e.set_u16(bytes, 60, 0);
            e.set_u16(bytes, 62, 0);
        }
        Class::Elf32 => {
            e.set_u32(bytes, 32, 0);
            e.set_u16(bytes, 48, 0);
            e.set_u16(bytes, 50, 0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ElfFile;

    fn mpi_app_spec() -> ElfSpec {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec![
            "libmpi.so.0".into(),
            "libnsl.so.1".into(),
            "libutil.so.1".into(),
            "libm.so.6".into(),
            "libc.so.6".into(),
        ];
        spec.imports = vec![
            ImportSpec::versioned("memcpy", "libc.so.6", "GLIBC_2.2.5"),
            ImportSpec::versioned("fopen64", "libc.so.6", "GLIBC_2.2.5"),
            ImportSpec::versioned("__isoc99_sscanf", "libc.so.6", "GLIBC_2.7"),
            ImportSpec::plain("MPI_Init", "libmpi.so.0"),
        ];
        spec.comments = vec!["GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)".into()];
        spec.text_size = 4096;
        spec
    }

    #[test]
    fn executable_round_trip_via_sections() {
        let spec = mpi_app_spec();
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert_eq!(f.class(), Class::Elf64);
        assert_eq!(f.machine(), Machine::X86_64);
        assert_eq!(f.kind(), FileKind::Executable);
        assert!(f.is_dynamic());
        assert_eq!(f.needed(), spec.needed.as_slice());
        assert_eq!(f.comments(), spec.comments.as_slice());
        assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.7");
        assert_eq!(f.interp(), Some("/lib64/ld-linux-x86-64.so.2"));
        let refs = f.version_refs();
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].file, "libc.so.6");
        assert_eq!(refs[0].versions.len(), 2);
        // Symbols carry their version bindings.
        let memcpy = f
            .dynamic_symbols()
            .iter()
            .find(|s| s.name == "memcpy")
            .unwrap();
        assert_eq!(memcpy.version.as_deref(), Some("GLIBC_2.2.5"));
        assert!(memcpy.undefined);
        let mpi_init = f
            .dynamic_symbols()
            .iter()
            .find(|s| s.name == "MPI_Init")
            .unwrap();
        assert_eq!(mpi_init.version, None);
    }

    #[test]
    fn executable_round_trip_via_segments_only() {
        // Strip the section header table: keep bytes but zero shoff/shnum,
        // as `strip` effectively does for the loader's purposes.
        let spec = mpi_app_spec();
        let mut bytes = spec.build().unwrap();
        let e = Endian::Little;
        // e_shoff at offset 40 (ELF64), e_shnum at 60, e_shstrndx at 62.
        e.set_u64(&mut bytes, 40, 0);
        e.set_u16(&mut bytes, 60, 0);
        e.set_u16(&mut bytes, 62, 0);
        let f = ElfFile::parse(&bytes).unwrap();
        assert!(f.sections().is_empty());
        assert_eq!(f.needed(), spec.needed.as_slice());
        assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.7");
        let memcpy = f
            .dynamic_symbols()
            .iter()
            .find(|s| s.name == "memcpy")
            .unwrap();
        assert_eq!(memcpy.version.as_deref(), Some("GLIBC_2.2.5"));
    }

    #[test]
    fn shared_library_round_trip_with_verdef() {
        let mut spec = ElfSpec::shared_library("libmpich.so.1.2", Machine::X86_64, Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        spec.exports = vec![
            ExportSpec::new("MPI_Init", Some("MPICH2_1.4")),
            ExportSpec::new("MPI_Send", Some("MPICH2_1.4")),
            ExportSpec::new("MPIR_Err_create_code", None),
        ];
        spec.imports = vec![ImportSpec::versioned("malloc", "libc.so.6", "GLIBC_2.5")];
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert_eq!(f.kind(), FileKind::SharedObject);
        assert_eq!(f.soname(), Some("libmpich.so.1.2"));
        let defs = f.version_defs();
        assert_eq!(defs.len(), 2);
        assert!(defs[0].is_base);
        assert_eq!(defs[0].name, "libmpich.so.1.2");
        assert_eq!(defs[1].name, "MPICH2_1.4");
        let init = f
            .dynamic_symbols()
            .iter()
            .find(|s| s.name == "MPI_Init")
            .unwrap();
        assert_eq!(init.version.as_deref(), Some("MPICH2_1.4"));
        assert!(!init.undefined);
    }

    #[test]
    fn elf32_big_endian_round_trip() {
        let mut spec = ElfSpec::executable(Machine::Ppc, Class::Elf32);
        spec.endian = Endian::Big;
        spec.needed = vec!["libc.so.6".into()];
        spec.imports = vec![ImportSpec::versioned("printf", "libc.so.6", "GLIBC_2.3.4")];
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert_eq!(f.class(), Class::Elf32);
        assert_eq!(f.machine(), Machine::Ppc);
        assert_eq!(f.needed(), &["libc.so.6".to_string()]);
        assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.3.4");
    }

    #[test]
    fn import_provider_auto_added_to_needed() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.imports = vec![ImportSpec::versioned(
            "pthread_create",
            "libpthread.so.0",
            "GLIBC_2.2.5",
        )];
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert_eq!(f.needed(), &["libpthread.so.0".to_string()]);
    }

    #[test]
    fn runpath_and_rpath_round_trip() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec!["libmpi.so.0".into()];
        spec.rpath = Some("/opt/openmpi-1.4.3-intel/lib".into());
        spec.runpath = Some("/usr/local/lib".into());
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert_eq!(
            f.dynamic_info().rpath.as_deref(),
            Some("/opt/openmpi-1.4.3-intel/lib")
        );
        assert_eq!(f.dynamic_info().runpath.as_deref(), Some("/usr/local/lib"));
        assert_eq!(
            f.dynamic_info().search_dirs(),
            vec!["/opt/openmpi-1.4.3-intel/lib", "/usr/local/lib"]
        );
    }

    #[test]
    fn shared_object_without_soname_rejected() {
        let spec = ElfSpec {
            kind: FileKind::SharedObject,
            ..Default::default()
        };
        assert!(matches!(spec.build(), Err(Error::InvalidSpec(_))));
    }

    #[test]
    fn relocatable_kind_rejected() {
        let spec = ElfSpec {
            kind: FileKind::Relocatable,
            ..Default::default()
        };
        assert!(matches!(spec.build(), Err(Error::InvalidSpec(_))));
    }

    #[test]
    fn text_size_drives_file_size() {
        let small = ElfSpec {
            text_size: 1024,
            ..mpi_app_spec()
        }
        .build()
        .unwrap();
        let large = ElfSpec {
            text_size: 1024 * 1024,
            ..mpi_app_spec()
        }
        .build()
        .unwrap();
        assert!(large.len() > small.len() + 1000 * 1024);
    }

    #[test]
    fn static_binary_has_no_dynamic_info() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.text_size = 64;
        // No needed/imports at all — still emits .dynamic (empty of NEEDED).
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert!(f.needed().is_empty());
        assert!(f.version_refs().is_empty());
        assert!(f.required_glibc().is_none());
    }

    #[test]
    fn static_link_omits_interp_and_dynamic_machinery() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.static_link = true;
        spec.comments = vec!["GCC: (GNU) 4.4.5".into()];
        let bytes = spec.build().unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert!(!f.is_dynamic());
        assert_eq!(f.interp(), None);
        assert!(f.needed().is_empty());
        assert!(f.dynamic_symbols().is_empty());
        assert!(f
            .sections()
            .iter()
            .all(|(n, _)| n != ".dynamic" && n != ".dynsym" && n != ".interp"));
        assert!(f
            .programs()
            .iter()
            .all(|p| p.kind != SegmentKind::Dynamic && p.kind != SegmentKind::Interp));
        // `.comment` is a plain section and survives static linking.
        assert_eq!(f.comments(), spec.comments.as_slice());
    }

    #[test]
    fn static_link_rejects_dynamic_fields() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.static_link = true;
        spec.needed = vec!["libc.so.6".into()];
        assert!(matches!(spec.build(), Err(Error::InvalidSpec(_))));
    }

    #[test]
    fn text_stamp_lands_at_the_entry_point() {
        let stamp = vec![0xAB; 24];
        for static_link in [false, true] {
            let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
            spec.static_link = static_link;
            if !static_link {
                spec.needed = vec!["libc.so.6".into()];
            }
            spec.text_stamp = stamp.clone();
            spec.text_size = 128;
            let bytes = spec.build().unwrap();
            let f = ElfFile::parse(&bytes).unwrap();
            let code = f.code_bytes().expect("code bytes");
            assert_eq!(&code[..24], stamp.as_slice());
        }
    }

    #[test]
    fn strip_section_headers_keeps_segment_route_loses_comments() {
        let spec = mpi_app_spec();
        let mut bytes = spec.build().unwrap();
        strip_section_headers(&mut bytes).unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert!(f.sections().is_empty());
        assert!(f.comments().is_empty());
        assert_eq!(f.needed(), spec.needed.as_slice());
        assert_eq!(f.required_glibc().unwrap().render(), "GLIBC_2.7");
        // Entry-point mapping still exposes the code bytes.
        assert!(f.code_bytes().is_some());
    }

    #[test]
    fn strip_section_headers_is_class_and_endian_aware() {
        let mut spec = ElfSpec::executable(Machine::Ppc, Class::Elf32);
        spec.endian = Endian::Big;
        spec.needed = vec!["libc.so.6".into()];
        spec.comments = vec!["GCC: (GNU) 4.1.2".into()];
        let mut bytes = spec.build().unwrap();
        strip_section_headers(&mut bytes).unwrap();
        let f = ElfFile::parse(&bytes).unwrap();
        assert!(f.sections().is_empty());
        assert!(f.comments().is_empty());
        assert_eq!(f.needed(), &["libc.so.6".to_string()]);
        let mut junk = vec![0u8; 16];
        assert!(strip_section_headers(&mut junk).is_err());
    }
}
