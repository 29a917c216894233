//! The ELF file header (`Elf32_Ehdr` / `Elf64_Ehdr`).

use crate::error::{Error, Result};
use crate::ident::{Class, Ident};
use crate::machine::Machine;

/// Object file type (`e_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum FileKind {
    /// `ET_REL` — relocatable object.
    Relocatable,
    /// `ET_EXEC` — position-dependent executable.
    Executable,
    /// `ET_DYN` — shared object (or PIE executable).
    SharedObject,
    /// `ET_CORE` — core dump.
    Core,
    /// Anything else.
    Other(u16),
}

impl FileKind {
    /// Encode as `e_type`.
    pub fn e_type(self) -> u16 {
        match self {
            FileKind::Relocatable => 1,
            FileKind::Executable => 2,
            FileKind::SharedObject => 3,
            FileKind::Core => 4,
            FileKind::Other(v) => v,
        }
    }

    /// Decode an `e_type` half-word.
    pub fn from_e_type(v: u16) -> Self {
        match v {
            1 => FileKind::Relocatable,
            2 => FileKind::Executable,
            3 => FileKind::SharedObject,
            4 => FileKind::Core,
            other => FileKind::Other(other),
        }
    }
}

/// Size of the header past `e_ident` for each class.
pub fn ehdr_size(class: Class) -> usize {
    match class {
        Class::Elf32 => 52,
        Class::Elf64 => 64,
    }
}

/// Decoded ELF file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfHeader {
    pub ident: Ident,
    pub kind: FileKind,
    pub machine: Machine,
    /// `e_version`; 1 for conforming files.
    pub version: u32,
    /// Entry point virtual address.
    pub entry: u64,
    /// Program header table file offset.
    pub phoff: u64,
    /// Section header table file offset.
    pub shoff: u64,
    /// Processor-specific flags.
    pub flags: u32,
    /// Size of one program header entry.
    pub phentsize: u16,
    /// Number of program header entries.
    pub phnum: u16,
    /// Size of one section header entry.
    pub shentsize: u16,
    /// Number of section header entries.
    pub shnum: u16,
    /// Index of the section-name string table.
    pub shstrndx: u16,
}

impl ElfHeader {
    /// Parse the header from the start of `data`.
    pub fn parse(data: &[u8]) -> Result<Self> {
        let ident = Ident::parse(data)?;
        let e = ident.endian;
        let need = ehdr_size(ident.class);
        if data.len() < need {
            return Err(Error::Truncated {
                wanted: need,
                have: data.len(),
            });
        }
        let kind = FileKind::from_e_type(e.read_u16(data, 16)?);
        let machine = Machine::from_e_machine(e.read_u16(data, 18)?);
        let version = e.read_u32(data, 20)?;
        let (entry, phoff, shoff, next) = match ident.class {
            Class::Elf32 => (
                e.read_u32(data, 24)? as u64,
                e.read_u32(data, 28)? as u64,
                e.read_u32(data, 32)? as u64,
                36,
            ),
            Class::Elf64 => (
                e.read_u64(data, 24)?,
                e.read_u64(data, 32)?,
                e.read_u64(data, 40)?,
                48,
            ),
        };
        Ok(ElfHeader {
            ident,
            kind,
            machine,
            version,
            entry,
            phoff,
            shoff,
            flags: e.read_u32(data, next)?,
            phentsize: e.read_u16(data, next + 6)?,
            phnum: e.read_u16(data, next + 8)?,
            shentsize: e.read_u16(data, next + 10)?,
            shnum: e.read_u16(data, next + 12)?,
            shstrndx: e.read_u16(data, next + 14)?,
        })
    }

    /// Encode the header; the output is exactly [`ehdr_size`] bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let e = self.ident.endian;
        let mut out = Vec::with_capacity(ehdr_size(self.ident.class));
        out.extend_from_slice(&self.ident.to_bytes());
        e.put_u16(&mut out, self.kind.e_type());
        e.put_u16(&mut out, self.machine.e_machine());
        e.put_u32(&mut out, self.version);
        match self.ident.class {
            Class::Elf32 => {
                e.put_u32(&mut out, self.entry as u32);
                e.put_u32(&mut out, self.phoff as u32);
                e.put_u32(&mut out, self.shoff as u32);
            }
            Class::Elf64 => {
                e.put_u64(&mut out, self.entry);
                e.put_u64(&mut out, self.phoff);
                e.put_u64(&mut out, self.shoff);
            }
        }
        e.put_u32(&mut out, self.flags);
        e.put_u16(&mut out, ehdr_size(self.ident.class) as u16);
        e.put_u16(&mut out, self.phentsize);
        e.put_u16(&mut out, self.phnum);
        e.put_u16(&mut out, self.shentsize);
        e.put_u16(&mut out, self.shnum);
        e.put_u16(&mut out, self.shstrndx);
        debug_assert_eq!(out.len(), ehdr_size(self.ident.class));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endian::Endian;
    use crate::ident::{OsAbi, EI_NIDENT};

    fn sample(class: Class, endian: Endian) -> ElfHeader {
        ElfHeader {
            ident: Ident {
                class,
                endian,
                version: 1,
                osabi: OsAbi::SysV,
                abi_version: 0,
            },
            kind: FileKind::Executable,
            machine: Machine::X86_64,
            version: 1,
            entry: 0x40_1000,
            phoff: 64,
            shoff: 0x2000,
            flags: 0,
            phentsize: if class == Class::Elf64 { 56 } else { 32 },
            phnum: 4,
            shentsize: if class == Class::Elf64 { 64 } else { 40 },
            shnum: 9,
            shstrndx: 8,
        }
    }

    #[test]
    fn header_round_trip_all_variants() {
        for class in [Class::Elf32, Class::Elf64] {
            for endian in [Endian::Little, Endian::Big] {
                let h = sample(class, endian);
                let parsed = ElfHeader::parse(&h.to_bytes()).unwrap();
                assert_eq!(parsed, h, "class={class:?} endian={endian:?}");
            }
        }
    }

    #[test]
    fn file_kind_round_trip() {
        for k in [
            FileKind::Relocatable,
            FileKind::Executable,
            FileKind::SharedObject,
            FileKind::Core,
            FileKind::Other(0xfe00),
        ] {
            assert_eq!(FileKind::from_e_type(k.e_type()), k);
        }
    }

    #[test]
    fn truncated_header_is_error() {
        let h = sample(Class::Elf64, Endian::Little);
        let bytes = h.to_bytes();
        assert!(matches!(
            ElfHeader::parse(&bytes[..EI_NIDENT + 4]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn elf32_header_is_52_bytes_elf64_is_64() {
        assert_eq!(sample(Class::Elf32, Endian::Little).to_bytes().len(), 52);
        assert_eq!(sample(Class::Elf64, Endian::Little).to_bytes().len(), 64);
    }
}
