//! Dynamic symbol table entries (`.dynsym`).
//!
//! The loader model uses these to check symbol-level ABI compatibility: an
//! application's undefined, versioned symbols must be provided by some
//! loaded library's defined symbols under the same version name.

use crate::endian::Endian;
use crate::error::Result;
use crate::ident::Class;
use crate::strtab::StrTab;

/// Symbol binding (upper nibble of `st_info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binding {
    Local,
    Global,
    Weak,
    Other(u8),
}

impl Binding {
    /// Encode the binding nibble.
    pub fn value(self) -> u8 {
        match self {
            Binding::Local => 0,
            Binding::Global => 1,
            Binding::Weak => 2,
            Binding::Other(v) => v,
        }
    }

    /// Decode the binding nibble.
    pub fn from_value(v: u8) -> Self {
        match v {
            0 => Binding::Local,
            1 => Binding::Global,
            2 => Binding::Weak,
            other => Binding::Other(other),
        }
    }
}

/// Symbol type (lower nibble of `st_info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKind {
    NoType,
    Object,
    Func,
    Section,
    File,
    Other(u8),
}

impl SymKind {
    /// Encode the type nibble.
    pub fn value(self) -> u8 {
        match self {
            SymKind::NoType => 0,
            SymKind::Object => 1,
            SymKind::Func => 2,
            SymKind::Section => 3,
            SymKind::File => 4,
            SymKind::Other(v) => v,
        }
    }

    /// Decode the type nibble.
    pub fn from_value(v: u8) -> Self {
        match v {
            0 => SymKind::NoType,
            1 => SymKind::Object,
            2 => SymKind::Func,
            3 => SymKind::Section,
            4 => SymKind::File,
            other => SymKind::Other(other),
        }
    }
}

/// Section index `SHN_UNDEF` — marks an undefined (imported) symbol.
pub const SHN_UNDEF: u16 = 0;
/// Section index `SHN_ABS`.
pub const SHN_ABS: u16 = 0xfff1;

/// One decoded symbol table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Offset of the name in the linked string table.
    pub name_off: u32,
    pub binding: Binding,
    pub kind: SymKind,
    /// Defining section index; `SHN_UNDEF` for imports.
    pub shndx: u16,
    pub value: u64,
    pub size: u64,
}

impl Symbol {
    /// Is this an import (undefined reference)?
    pub fn is_undefined(&self) -> bool {
        self.shndx == SHN_UNDEF
    }
}

/// Size of one symbol entry for a class.
pub fn sym_size(class: Class) -> usize {
    match class {
        Class::Elf32 => 16,
        Class::Elf64 => 24,
    }
}

/// Parse one symbol at `off`.
pub fn parse_symbol(data: &[u8], off: usize, class: Class, e: Endian) -> Result<Symbol> {
    match class {
        Class::Elf32 => {
            let name_off = e.read_u32(data, off)?;
            let value = e.read_u32(data, off + 4)? as u64;
            let size = e.read_u32(data, off + 8)? as u64;
            let info = crate::endian::slice(data, off + 12, 1)?[0];
            let shndx = e.read_u16(data, off + 14)?;
            Ok(Symbol {
                name_off,
                binding: Binding::from_value(info >> 4),
                kind: SymKind::from_value(info & 0xf),
                shndx,
                value,
                size,
            })
        }
        Class::Elf64 => {
            let name_off = e.read_u32(data, off)?;
            let info = crate::endian::slice(data, off + 4, 1)?[0];
            let shndx = e.read_u16(data, off + 6)?;
            let value = e.read_u64(data, off + 8)?;
            let size = e.read_u64(data, off + 16)?;
            Ok(Symbol {
                name_off,
                binding: Binding::from_value(info >> 4),
                kind: SymKind::from_value(info & 0xf),
                shndx,
                value,
                size,
            })
        }
    }
}

/// Encode one symbol.
pub fn encode_symbol(sym: &Symbol, class: Class, e: Endian) -> Vec<u8> {
    let info = (sym.binding.value() << 4) | (sym.kind.value() & 0xf);
    let mut out = Vec::with_capacity(sym_size(class));
    match class {
        Class::Elf32 => {
            e.put_u32(&mut out, sym.name_off);
            e.put_u32(&mut out, sym.value as u32);
            e.put_u32(&mut out, sym.size as u32);
            out.push(info);
            out.push(0); // st_other
            e.put_u16(&mut out, sym.shndx);
        }
        Class::Elf64 => {
            e.put_u32(&mut out, sym.name_off);
            out.push(info);
            out.push(0); // st_other
            e.put_u16(&mut out, sym.shndx);
            e.put_u64(&mut out, sym.value);
            e.put_u64(&mut out, sym.size);
        }
    }
    debug_assert_eq!(out.len(), sym_size(class));
    out
}

/// Parse an entire symbol table section.
pub fn parse_table(data: &[u8], class: Class, e: Endian) -> Result<Vec<Symbol>> {
    let step = sym_size(class);
    (0..data.len() / step)
        .map(|i| parse_symbol(data, i * step, class, e))
        .collect()
}

/// A symbol with its resolved name and version, as exposed by
/// the eager `reader::ElfFile::dynamic_symbols`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NamedSymbol {
    pub name: String,
    /// Version name bound via versym/verneed/verdef, if any.
    pub version: Option<String>,
    /// True when the binding is imported (undefined).
    pub undefined: bool,
    /// True for weak symbols or weak version references.
    pub weak: bool,
}

/// Resolve raw symbols against a string table.
pub fn resolve_names(syms: &[Symbol], strtab: &StrTab<'_>) -> Result<Vec<(String, Symbol)>> {
    syms.iter()
        .map(|s| Ok((strtab.get(s.name_off as usize)?.to_string(), s.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Symbol {
        Symbol {
            name_off: 5,
            binding: Binding::Global,
            kind: SymKind::Func,
            shndx: SHN_UNDEF,
            value: 0,
            size: 0,
        }
    }

    #[test]
    fn symbol_round_trip_both_classes() {
        for class in [Class::Elf32, Class::Elf64] {
            for e in [Endian::Little, Endian::Big] {
                let s = sample();
                let bytes = encode_symbol(&s, class, e);
                assert_eq!(parse_symbol(&bytes, 0, class, e).unwrap(), s);
            }
        }
    }

    #[test]
    fn undefined_detection() {
        let mut s = sample();
        assert!(s.is_undefined());
        s.shndx = 7;
        assert!(!s.is_undefined());
    }

    #[test]
    fn binding_and_kind_round_trip() {
        for b in [
            Binding::Local,
            Binding::Global,
            Binding::Weak,
            Binding::Other(9),
        ] {
            assert_eq!(Binding::from_value(b.value()), b);
        }
        for k in [
            SymKind::NoType,
            SymKind::Object,
            SymKind::Func,
            SymKind::Section,
            SymKind::File,
            SymKind::Other(9),
        ] {
            assert_eq!(SymKind::from_value(k.value()), k);
        }
    }

    #[test]
    fn table_parse_counts_entries() {
        let mut bytes = Vec::new();
        for i in 0..3 {
            let mut s = sample();
            s.name_off = i;
            bytes.extend(encode_symbol(&s, Class::Elf64, Endian::Little));
        }
        let t = parse_table(&bytes, Class::Elf64, Endian::Little).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[2].name_off, 2);
    }
}
