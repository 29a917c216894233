//! The 16-byte ELF identification prefix (`e_ident`).

use crate::endian::Endian;
use crate::error::{Error, Result};

/// `\x7fELF` magic bytes.
pub const MAGIC: [u8; 4] = [0x7f, b'E', b'L', b'F'];
/// Length of the identification array.
pub const EI_NIDENT: usize = 16;

/// ELF file class (`EI_CLASS`): 32-bit or 64-bit object.
///
/// The paper's ISA determinant distinguishes both the instruction set *and*
/// word length ("32 vs. 64-bit"); the class carries the latter and is also
/// used when selecting between 32-bit and 64-bit shared libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Class {
    /// `ELFCLASS32`.
    Elf32,
    /// `ELFCLASS64`.
    Elf64,
}

impl Class {
    /// The `EI_CLASS` byte.
    pub fn ei_class(self) -> u8 {
        match self {
            Class::Elf32 => 1,
            Class::Elf64 => 2,
        }
    }

    /// Decode an `EI_CLASS` byte.
    pub fn from_ei_class(b: u8) -> Result<Self> {
        match b {
            1 => Ok(Class::Elf32),
            2 => Ok(Class::Elf64),
            other => Err(Error::Malformed(format!(
                "invalid EI_CLASS byte {other:#x}"
            ))),
        }
    }

    /// Word length in bits (32 or 64) — the "bitness" of the paper's ISA
    /// determinant.
    pub fn bits(self) -> u8 {
        match self {
            Class::Elf32 => 32,
            Class::Elf64 => 64,
        }
    }

    /// Size in bytes of an address/offset field for this class.
    pub fn word_size(self) -> usize {
        match self {
            Class::Elf32 => 4,
            Class::Elf64 => 8,
        }
    }
}

/// OS/ABI identification (`EI_OSABI`). Only the values seen on the paper's
/// Linux testbed are named; everything else round-trips as `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum OsAbi {
    /// `ELFOSABI_NONE` / `ELFOSABI_SYSV` — what Linux toolchains emit.
    SysV,
    /// `ELFOSABI_GNU` (a.k.a. `ELFOSABI_LINUX`).
    Gnu,
    /// Any other value, preserved verbatim.
    Other(u8),
}

impl OsAbi {
    /// The `EI_OSABI` byte.
    pub fn ei_osabi(self) -> u8 {
        match self {
            OsAbi::SysV => 0,
            OsAbi::Gnu => 3,
            OsAbi::Other(b) => b,
        }
    }

    /// Decode an `EI_OSABI` byte.
    pub fn from_ei_osabi(b: u8) -> Self {
        match b {
            0 => OsAbi::SysV,
            3 => OsAbi::Gnu,
            other => OsAbi::Other(other),
        }
    }
}

/// Decoded identification prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ident {
    pub class: Class,
    pub endian: Endian,
    /// `EI_VERSION`; always 1 for conforming files.
    pub version: u8,
    pub osabi: OsAbi,
    /// `EI_ABIVERSION`.
    pub abi_version: u8,
}

impl Ident {
    /// Parse the identification prefix from the start of `data`.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < EI_NIDENT {
            return Err(Error::Truncated {
                wanted: EI_NIDENT,
                have: data.len(),
            });
        }
        if data[..4] != MAGIC {
            return Err(Error::NotElf);
        }
        let class = Class::from_ei_class(data[4])?;
        let endian = Endian::from_ei_data(data[5])?;
        let version = data[6];
        if version != 1 {
            return Err(Error::Malformed(format!(
                "unsupported EI_VERSION {version}"
            )));
        }
        Ok(Ident {
            class,
            endian,
            version,
            osabi: OsAbi::from_ei_osabi(data[7]),
            abi_version: data[8],
        })
    }

    /// Encode the 16-byte identification array.
    pub fn to_bytes(self) -> [u8; EI_NIDENT] {
        let mut out = [0u8; EI_NIDENT];
        out[..4].copy_from_slice(&MAGIC);
        out[4] = self.class.ei_class();
        out[5] = self.endian.ei_data();
        out[6] = self.version;
        out[7] = self.osabi.ei_osabi();
        out[8] = self.abi_version;
        out
    }
}

impl Default for Ident {
    fn default() -> Self {
        Ident {
            class: Class::Elf64,
            endian: Endian::Little,
            version: 1,
            osabi: OsAbi::SysV,
            abi_version: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_round_trip() {
        let id = Ident {
            class: Class::Elf32,
            endian: Endian::Big,
            version: 1,
            osabi: OsAbi::Gnu,
            abi_version: 2,
        };
        let parsed = Ident::parse(&id.to_bytes()).unwrap();
        assert_eq!(parsed, id);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = Ident::default().to_bytes();
        b[0] = 0x7e;
        assert_eq!(Ident::parse(&b), Err(Error::NotElf));
    }

    #[test]
    fn rejects_short_input() {
        assert!(matches!(
            Ident::parse(&[0x7f, b'E']),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_bad_class_and_version() {
        let mut b = Ident::default().to_bytes();
        b[4] = 9;
        assert!(matches!(Ident::parse(&b), Err(Error::Malformed(_))));
        let mut b = Ident::default().to_bytes();
        b[6] = 2;
        assert!(matches!(Ident::parse(&b), Err(Error::Malformed(_))));
    }

    #[test]
    fn class_bits_and_word_size() {
        assert_eq!(Class::Elf32.bits(), 32);
        assert_eq!(Class::Elf64.bits(), 64);
        assert_eq!(Class::Elf32.word_size(), 4);
        assert_eq!(Class::Elf64.word_size(), 8);
    }

    #[test]
    fn osabi_other_round_trips() {
        let o = OsAbi::from_ei_osabi(97);
        assert_eq!(o, OsAbi::Other(97));
        assert_eq!(o.ei_osabi(), 97);
    }
}
