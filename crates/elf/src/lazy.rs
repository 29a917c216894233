//! Zero-copy ELF view: the cache-miss-path reader.
//!
//! [`LazyElf`] walks the same two routes as the eager reader — section
//! headers first (`objdump`/`readelf` style), the `PT_DYNAMIC` segment
//! when sections are stripped (`ld.so` style) — but *borrows* every
//! string straight out of the input image instead of materializing owned
//! `String`s. Structural validation is eager, so `Err`/`Ok`
//! classification is identical to the eager reader's by construction;
//! decoding that allocates (the `.comment` split, which is lossy and
//! deduplicating) is deferred behind a `OnceLock` and only paid when a
//! caller actually asks.
//!
//! The differential suite (`tests/elf_differential.rs`) pins the
//! equivalence over the full fuzz corpus and every §VI.A corpus binary.

use crate::comment::parse_comment;
use crate::dynamic::{self, DynEntry, Tag};
use crate::endian::{slice, Endian};
use crate::error::{Error, Result};
use crate::header::{ElfHeader, FileKind};
use crate::ident::Class;
use crate::machine::Machine;
use crate::notes::{find_abi_tag, parse_notes, AbiTag};
use crate::program::{self, ProgramHeader, SegmentKind};
use crate::section::SectionHeader;
use crate::strtab::StrTab;
use crate::symbols;
use crate::versions::{
    self, newest_with_prefix, VersionDefV, VersionName, VersionRefV, VER_NDX_GLOBAL, VER_NDX_LOCAL,
};
use std::sync::OnceLock;

/// Which evidence tables an image actually carries.
///
/// Absence of a table is a *finding*, not a parse failure: a stripped
/// binary legitimately has no section headers (and therefore no reachable
/// `.comment` or `.symtab`), a static binary legitimately has no dynamic
/// section. Downstream components use this survey to pick an evidence
/// tier instead of treating the gap as an error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EvidenceSurvey {
    /// Section header table present (the `objdump`/`readelf` route).
    pub has_section_headers: bool,
    /// Any symbol table reachable (`.symtab` section or dynamic symbols
    /// recovered through either route).
    pub has_symtab: bool,
    /// `.comment` provenance strings reachable.
    pub has_comment: bool,
    /// Dynamic section present (dynamically linked).
    pub has_dynamic: bool,
    /// GNU version references (`.gnu.version_r`) present.
    pub has_verneed: bool,
}

impl EvidenceSurvey {
    /// True when the direct provenance channels (`.comment`, version
    /// references) are all absent and a fallback tier is required.
    pub fn needs_fallback(&self) -> bool {
        !self.has_comment || !self.has_dynamic
    }
}

/// A dynamic symbol with name and version borrowed from the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymView<'d> {
    pub name: &'d str,
    /// Version name bound via versym/verneed/verdef, if any.
    pub version: Option<&'d str>,
    /// True when the binding is imported (undefined).
    pub undefined: bool,
    /// True for weak symbols or weak version references.
    pub weak: bool,
}

/// A zero-copy view of one ELF image: headers decoded, every string a
/// borrow into `data`, `.comment` decoding deferred.
#[derive(Debug)]
pub struct LazyElf<'d> {
    data: &'d [u8],
    header: ElfHeader,
    sections: Vec<(&'d str, SectionHeader)>,
    programs: Vec<ProgramHeader>,
    dyn_entries: Vec<DynEntry>,
    needed: Vec<&'d str>,
    soname: Option<&'d str>,
    rpath: Option<&'d str>,
    runpath: Option<&'d str>,
    version_refs: Vec<VersionRefV<'d>>,
    version_defs: Vec<VersionDefV<'d>>,
    dynamic_symbols: Vec<SymView<'d>>,
    /// Raw `.comment` section bytes; split/deduped on first access.
    comment_bytes: &'d [u8],
    comments: OnceLock<Vec<String>>,
    interp: Option<&'d str>,
}

impl<'d> LazyElf<'d> {
    /// Parse an image. Fails on structural corruption but tolerates absent
    /// optional tables — exactly the same acceptance set as the eager
    /// reader.
    pub fn parse(data: &'d [u8]) -> Result<Self> {
        let header = ElfHeader::parse(data)?;
        let class = header.ident.class;
        let e = header.ident.endian;
        let programs = program::parse_table(data, &header)?;
        let sections = parse_section_table(data, &header)?;

        let interp = programs
            .iter()
            .find(|p| p.kind == SegmentKind::Interp)
            .map(|p| read_path(data, p.offset as usize, p.filesz as usize))
            .transpose()?;

        let mut file = LazyElf {
            data,
            header,
            sections,
            programs,
            dyn_entries: Vec::new(),
            needed: Vec::new(),
            soname: None,
            rpath: None,
            runpath: None,
            version_refs: Vec::new(),
            version_defs: Vec::new(),
            dynamic_symbols: Vec::new(),
            comment_bytes: &[],
            comments: OnceLock::new(),
            interp,
        };
        if !file.sections.is_empty() {
            file.parse_via_sections(class, e)?;
        } else {
            file.parse_via_segments(class, e)?;
        }
        Ok(file)
    }

    fn section(&self, name: &str) -> Option<&SectionHeader> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    fn resolve_dynamic_strings(&mut self, dynstr: &StrTab<'d>) -> Result<()> {
        for ent in &self.dyn_entries {
            match ent.tag {
                Tag::Needed => self.needed.push(dynstr.get(ent.value as usize)?),
                Tag::SoName => self.soname = Some(dynstr.get(ent.value as usize)?),
                Tag::RPath => self.rpath = Some(dynstr.get(ent.value as usize)?),
                Tag::RunPath => self.runpath = Some(dynstr.get(ent.value as usize)?),
                _ => {}
            }
        }
        Ok(())
    }

    fn parse_via_sections(&mut self, class: Class, e: Endian) -> Result<()> {
        if let Some(com) = self.section(".comment") {
            self.comment_bytes = com.bytes(self.data)?;
        }
        let Some(dyn_sh) = self.section(".dynamic").cloned() else {
            return Ok(()); // statically linked
        };
        self.dyn_entries = dynamic::parse_entries(dyn_sh.bytes(self.data)?, class, e)?;
        let dynstr_sh = self
            .sections
            .get(dyn_sh.link as usize)
            .map(|(_, s)| s.clone())
            .or_else(|| self.section(".dynstr").cloned())
            .ok_or(Error::Missing("dynamic string table"))?;
        let dynstr = StrTab::new(dynstr_sh.bytes(self.data)?);
        self.resolve_dynamic_strings(&dynstr)?;

        if let Some(vn) = self.section(".gnu.version_r").cloned() {
            self.version_refs =
                versions::parse_verneed_ref(vn.bytes(self.data)?, vn.info as usize, &dynstr, e)?;
        }
        if let Some(vd) = self.section(".gnu.version_d").cloned() {
            self.version_defs =
                versions::parse_verdef_ref(vd.bytes(self.data)?, vd.info as usize, &dynstr, e)?;
        }

        let versym = match self.section(".gnu.version").cloned() {
            Some(vs) => versions::parse_versym(vs.bytes(self.data)?, e)?,
            None => Vec::new(),
        };
        if let Some(ds) = self.section(".dynsym").cloned() {
            self.dynamic_symbols =
                self.view_symbols(ds.bytes(self.data)?, class, e, &dynstr, &versym)?;
        }
        Ok(())
    }

    /// Map a virtual address to a file offset through the `PT_LOAD`
    /// segments. Segments whose address range or file offset would
    /// overflow are treated as not covering anything.
    fn vaddr_to_offset(&self, vaddr: u64) -> Result<usize> {
        for p in &self.programs {
            if p.kind != SegmentKind::Load {
                continue;
            }
            let Some(end) = p.vaddr.checked_add(p.filesz) else {
                continue;
            };
            if vaddr >= p.vaddr && vaddr < end {
                let off = p.offset.checked_add(vaddr - p.vaddr).ok_or_else(|| {
                    Error::Malformed(format!("segment offset overflow at {vaddr:#x}"))
                })?;
                return Ok(off as usize);
            }
        }
        Err(Error::Malformed(format!(
            "vaddr {vaddr:#x} not covered by any PT_LOAD"
        )))
    }

    /// The image bytes from `off` to the end, bounds-checked.
    fn tail(&self, off: usize) -> Result<&'d [u8]> {
        self.data.get(off..).ok_or(Error::Truncated {
            wanted: off,
            have: self.data.len(),
        })
    }

    fn parse_via_segments(&mut self, class: Class, e: Endian) -> Result<()> {
        let Some(dyn_ph) = self
            .programs
            .iter()
            .find(|p| p.kind == SegmentKind::Dynamic)
            .cloned()
        else {
            return Ok(()); // statically linked
        };
        let dyn_bytes = slice(self.data, dyn_ph.offset as usize, dyn_ph.filesz as usize)?;
        self.dyn_entries = dynamic::parse_entries(dyn_bytes, class, e)?;
        let strtab_addr =
            raw_value(&self.dyn_entries, Tag::StrTab).ok_or(Error::Missing("DT_STRTAB"))?;
        let strsz = raw_value(&self.dyn_entries, Tag::StrSz).ok_or(Error::Missing("DT_STRSZ"))?;
        let str_off = self.vaddr_to_offset(strtab_addr)?;
        let dynstr = StrTab::new(slice(self.data, str_off, strsz as usize)?);
        self.resolve_dynamic_strings(&dynstr)?;

        if let (Some(vn_addr), Some(vn_num)) = (
            raw_value(&self.dyn_entries, Tag::VerNeed),
            raw_value(&self.dyn_entries, Tag::VerNeedNum),
        ) {
            let off = self.vaddr_to_offset(vn_addr)?;
            let tail = self.tail(off)?;
            self.version_refs = versions::parse_verneed_ref(tail, vn_num as usize, &dynstr, e)?;
        }
        if let (Some(vd_addr), Some(vd_num)) = (
            raw_value(&self.dyn_entries, Tag::VerDef),
            raw_value(&self.dyn_entries, Tag::VerDefNum),
        ) {
            let off = self.vaddr_to_offset(vd_addr)?;
            let tail = self.tail(off)?;
            self.version_defs = versions::parse_verdef_ref(tail, vd_num as usize, &dynstr, e)?;
        }

        // Symbol count comes from the SysV hash table's nchain field.
        let nsyms = match (
            raw_value(&self.dyn_entries, Tag::Hash),
            raw_value(&self.dyn_entries, Tag::SymTab),
        ) {
            (Some(hash_addr), Some(_)) => {
                let hoff = self.vaddr_to_offset(hash_addr)?;
                Some(e.read_u32(self.data, hoff + 4)? as usize)
            }
            _ => None,
        };
        if let (Some(sym_addr), Some(n)) = (raw_value(&self.dyn_entries, Tag::SymTab), nsyms) {
            let soff = self.vaddr_to_offset(sym_addr)?;
            let sym_bytes = slice(self.data, soff, n * symbols::sym_size(class))?;
            let versym = match raw_value(&self.dyn_entries, Tag::VerSym) {
                Some(vs_addr) => {
                    let voff = self.vaddr_to_offset(vs_addr)?;
                    versions::parse_versym(slice(self.data, voff, n * 2)?, e)?
                }
                None => Vec::new(),
            };
            self.dynamic_symbols = self.view_symbols(sym_bytes, class, e, &dynstr, &versym)?;
        }
        Ok(())
    }

    /// Decode the symbol table into borrowed views, validating every name
    /// offset now (structural corruption must surface at parse time, not
    /// on first access).
    fn view_symbols(
        &self,
        sym_bytes: &[u8],
        class: Class,
        e: Endian,
        dynstr: &StrTab<'d>,
        versym: &[u16],
    ) -> Result<Vec<SymView<'d>>> {
        let version_name = |idx: u16| -> Option<&'d str> {
            let idx = idx & 0x7fff;
            if idx == VER_NDX_LOCAL || idx == VER_NDX_GLOBAL {
                return None;
            }
            for r in &self.version_refs {
                for v in &r.versions {
                    if v.index == idx {
                        return Some(v.name);
                    }
                }
            }
            self.version_defs
                .iter()
                .find(|d| d.index == idx)
                .map(|d| d.name)
        };
        let step = symbols::sym_size(class);
        let mut out = Vec::with_capacity(sym_bytes.len() / step);
        for i in 0..sym_bytes.len() / step {
            let s = symbols::parse_symbol(sym_bytes, i * step, class, e)?;
            let name = dynstr.get(s.name_off as usize)?;
            let version = versym.get(i).copied().and_then(version_name);
            out.push(SymView {
                name,
                version,
                undefined: s.is_undefined(),
                weak: s.binding == symbols::Binding::Weak,
            });
        }
        Ok(out)
    }

    // ----- accessors ------------------------------------------------------

    /// The decoded file header.
    pub fn header(&self) -> &ElfHeader {
        &self.header
    }

    /// File class (32/64-bit) — the bitness half of the ISA determinant.
    pub fn class(&self) -> Class {
        self.header.ident.class
    }

    /// Target ISA.
    pub fn machine(&self) -> Machine {
        self.header.machine
    }

    /// Object kind (executable / shared object / …).
    pub fn kind(&self) -> FileKind {
        self.header.kind
    }

    /// All section headers with names borrowed from `.shstrtab`.
    pub fn sections(&self) -> &[(&'d str, SectionHeader)] {
        &self.sections
    }

    /// All program headers.
    pub fn programs(&self) -> &[ProgramHeader] {
        &self.programs
    }

    /// Raw bytes of a named section, if present.
    pub fn section_bytes(&self, name: &str) -> Option<&'d [u8]> {
        let sh = self.section(name)?;
        sh.bytes(self.data).ok()
    }

    /// True when the image has a dynamic section (i.e. is dynamically
    /// linked).
    pub fn is_dynamic(&self) -> bool {
        !self.dyn_entries.is_empty() || self.programs.iter().any(|p| p.kind == SegmentKind::Dynamic)
    }

    /// `DT_NEEDED` sonames in link order, borrowed from the dynamic string
    /// table.
    pub fn needed(&self) -> &[&'d str] {
        &self.needed
    }

    /// `DT_SONAME`, when the image is a shared library.
    pub fn soname(&self) -> Option<&'d str> {
        self.soname
    }

    /// `DT_RPATH` search path (legacy, pre-RUNPATH).
    pub fn rpath(&self) -> Option<&'d str> {
        self.rpath
    }

    /// `DT_RUNPATH` search path.
    pub fn runpath(&self) -> Option<&'d str> {
        self.runpath
    }

    /// Version References (`.gnu.version_r`) grouped by dependency file.
    pub fn version_refs(&self) -> &[VersionRefV<'d>] {
        &self.version_refs
    }

    /// Version Definitions (`.gnu.version_d`).
    pub fn version_defs(&self) -> &[VersionDefV<'d>] {
        &self.version_defs
    }

    /// Dynamic symbols with borrowed names and version bindings.
    pub fn dynamic_symbols(&self) -> &[SymView<'d>] {
        &self.dynamic_symbols
    }

    /// `.comment` provenance strings — decoded (lossy, deduplicating) on
    /// first access only.
    pub fn comments(&self) -> &[String] {
        self.comments
            .get_or_init(|| parse_comment(self.comment_bytes))
    }

    /// `PT_INTERP` program interpreter path.
    pub fn interp(&self) -> Option<&'d str> {
        self.interp
    }

    /// The `NT_GNU_ABI_TAG` note (OS + minimum kernel), when present —
    /// looked up via the `.note.ABI-tag` section or the `PT_NOTE` segment.
    pub fn abi_tag(&self) -> Option<AbiTag> {
        let e = self.header.ident.endian;
        if let Some(bytes) = self.section_bytes(".note.ABI-tag") {
            if let Ok(notes) = parse_notes(bytes, e) {
                if let Some(tag) = find_abi_tag(&notes, e) {
                    return Some(tag);
                }
            }
        }
        for p in &self.programs {
            if p.kind == SegmentKind::Note {
                if let Ok(raw) = slice(self.data, p.offset as usize, p.filesz as usize) {
                    if let Ok(notes) = parse_notes(raw, e) {
                        if let Some(tag) = find_abi_tag(&notes, e) {
                            return Some(tag);
                        }
                    }
                }
            }
        }
        None
    }

    /// Newest version name with `prefix` across Version Definitions and
    /// Version References — §V.A's rule for the required C library version
    /// when `prefix == "GLIBC"`.
    pub fn newest_version(&self, prefix: &str) -> Option<VersionName> {
        let ref_names = self
            .version_refs
            .iter()
            .flat_map(|r| r.versions.iter().map(|v| v.name));
        let def_names = self.version_defs.iter().map(|d| d.name);
        newest_with_prefix(ref_names.chain(def_names), prefix)
    }

    /// The application's *required C library version* (§III.C).
    pub fn required_glibc(&self) -> Option<VersionName> {
        self.newest_version("GLIBC")
    }

    /// Total size of the underlying image in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Survey which evidence tables this image carries. Gaps are reported
    /// as structured absence, never as parse errors. Does not force the
    /// `.comment` decode: a comment exists iff the raw section holds any
    /// non-NUL byte.
    pub fn evidence(&self) -> EvidenceSurvey {
        EvidenceSurvey {
            has_section_headers: !self.sections.is_empty(),
            has_symtab: !self.dynamic_symbols.is_empty() || self.section(".symtab").is_some(),
            has_comment: self.comment_bytes.iter().any(|&b| b != 0),
            has_dynamic: self.is_dynamic(),
            has_verneed: !self.version_refs.is_empty(),
        }
    }

    /// The executable code bytes: `.text` when section headers survive,
    /// otherwise the loadable bytes from the entry point to the end of its
    /// `PT_LOAD` segment — the window a signature matcher scans on a
    /// stripped binary.
    pub fn code_bytes(&self) -> Option<&'d [u8]> {
        if let Some(b) = self.section_bytes(".text") {
            return Some(b);
        }
        let entry = self.header.entry;
        if entry == 0 {
            return None;
        }
        for p in &self.programs {
            if p.kind != SegmentKind::Load {
                continue;
            }
            let Some(end) = p.vaddr.checked_add(p.filesz) else {
                continue;
            };
            if entry >= p.vaddr && entry < end {
                let off = p.offset.checked_add(entry - p.vaddr)? as usize;
                let seg_end = p.offset.checked_add(p.filesz)? as usize;
                return self.data.get(off..seg_end.min(self.data.len()));
            }
        }
        None
    }
}

fn raw_value(entries: &[DynEntry], tag: Tag) -> Option<u64> {
    entries
        .iter()
        .find(|ent| ent.tag == tag)
        .map(|ent| ent.value)
}

/// Borrowed twin of `section::parse_table`: same validation walk, section
/// names left as borrows into `.shstrtab`.
fn parse_section_table<'d>(
    data: &'d [u8],
    hdr: &ElfHeader,
) -> Result<Vec<(&'d str, SectionHeader)>> {
    if hdr.shoff == 0 || hdr.shnum == 0 {
        return Ok(Vec::new());
    }
    let class = hdr.ident.class;
    let e = hdr.ident.endian;
    let mut raw = Vec::with_capacity(hdr.shnum as usize);
    for i in 0..hdr.shnum as usize {
        let off = hdr
            .shoff
            .checked_add(i as u64 * hdr.shentsize as u64)
            .ok_or_else(|| Error::Malformed("section header table offset overflow".into()))?;
        raw.push(SectionHeader::parse(data, off as usize, class, e)?);
    }
    let shstr = raw
        .get(hdr.shstrndx as usize)
        .ok_or_else(|| Error::Malformed(format!("shstrndx {} out of range", hdr.shstrndx)))?;
    let shstr_tab = StrTab::new(shstr.bytes(data)?);
    raw.into_iter()
        .map(|sh| {
            let name = shstr_tab.get(sh.name_off as usize)?;
            Ok((name, sh))
        })
        .collect()
}

fn read_path(data: &[u8], off: usize, len: usize) -> Result<&str> {
    let raw = slice(data, off, len)?;
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    std::str::from_utf8(&raw[..end]).map_err(|_| Error::Malformed("non-UTF-8 interp path".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{strip_section_headers, ElfSpec};

    #[test]
    fn parse_rejects_garbage() {
        assert!(LazyElf::parse(&[0u8; 100]).is_err());
        assert!(LazyElf::parse(b"\x7fELF").is_err());
    }

    #[test]
    fn lazy_view_matches_eager_reader_on_both_routes() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec!["libmpi.so.0".into(), "libc.so.6".into()];
        spec.imports = vec![crate::builder::ImportSpec::versioned(
            "fopen64",
            "libc.so.6",
            "GLIBC_2.3.4",
        )];
        spec.comments = vec!["GCC: (GNU) 4.1.2".into()];
        let mut bytes = spec.build().unwrap();
        for pass in 0..2 {
            if pass == 1 {
                strip_section_headers(&mut bytes).unwrap();
            }
            let eager = crate::reader::ElfFile::parse(&bytes).unwrap();
            let lazy = LazyElf::parse(&bytes).unwrap();
            let lazy_needed: Vec<String> = lazy.needed().iter().map(|s| s.to_string()).collect();
            assert_eq!(eager.needed(), lazy_needed.as_slice());
            assert_eq!(eager.soname(), lazy.soname());
            assert_eq!(eager.comments(), lazy.comments());
            assert_eq!(eager.evidence(), lazy.evidence());
            assert_eq!(eager.is_dynamic(), lazy.is_dynamic());
            assert_eq!(
                eager.required_glibc().map(|v| v.render()),
                lazy.required_glibc().map(|v| v.render())
            );
            assert_eq!(eager.dynamic_symbols().len(), lazy.dynamic_symbols().len());
            for (e, l) in eager.dynamic_symbols().iter().zip(lazy.dynamic_symbols()) {
                assert_eq!(e.name, l.name);
                assert_eq!(e.version.as_deref(), l.version);
                assert_eq!(e.undefined, l.undefined);
                assert_eq!(e.weak, l.weak);
            }
        }
    }

    #[test]
    fn comment_decode_is_deferred_but_evidence_is_not() {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        spec.comments = vec!["GCC: (GNU) 4.4.7".into()];
        let bytes = spec.build().unwrap();
        let lazy = LazyElf::parse(&bytes).unwrap();
        assert!(lazy.comments.get().is_none(), "no decode before access");
        assert!(lazy.evidence().has_comment, "survey reads raw bytes");
        assert!(lazy.comments.get().is_none(), "survey did not force decode");
        assert_eq!(lazy.comments(), &["GCC: (GNU) 4.4.7".to_string()]);
        assert!(lazy.comments.get().is_some());
    }
}
