//! The dynamic section (`.dynamic`) — `DT_NEEDED`, `DT_SONAME`, search
//! paths, and pointers to the version tables.
//!
//! This is the section FEAM's Binary Description Component reads via
//! `objdump -p` ("NEEDED components under the Dynamic Section").

use crate::endian::Endian;
use crate::error::Result;
use crate::ident::Class;
use crate::strtab::StrTab;

/// Dynamic entry tags (`d_tag`) used by the reader and writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    Null,
    Needed,
    Hash,
    StrTab,
    SymTab,
    StrSz,
    SymEnt,
    SoName,
    RPath,
    RunPath,
    VerSym,
    VerDef,
    VerDefNum,
    VerNeed,
    VerNeedNum,
    Other(u64),
}

impl Tag {
    /// Encode as `d_tag`.
    pub fn d_tag(self) -> u64 {
        match self {
            Tag::Null => 0,
            Tag::Needed => 1,
            Tag::Hash => 4,
            Tag::StrTab => 5,
            Tag::SymTab => 6,
            Tag::StrSz => 10,
            Tag::SymEnt => 11,
            Tag::SoName => 14,
            Tag::RPath => 15,
            Tag::RunPath => 29,
            Tag::VerSym => 0x6fff_fff0,
            Tag::VerDef => 0x6fff_fffc,
            Tag::VerDefNum => 0x6fff_fffd,
            Tag::VerNeed => 0x6fff_fffe,
            Tag::VerNeedNum => 0x6fff_ffff,
            Tag::Other(v) => v,
        }
    }

    /// Decode a `d_tag` value.
    pub fn from_d_tag(v: u64) -> Self {
        match v {
            0 => Tag::Null,
            1 => Tag::Needed,
            4 => Tag::Hash,
            5 => Tag::StrTab,
            6 => Tag::SymTab,
            10 => Tag::StrSz,
            11 => Tag::SymEnt,
            14 => Tag::SoName,
            15 => Tag::RPath,
            29 => Tag::RunPath,
            0x6fff_fff0 => Tag::VerSym,
            0x6fff_fffc => Tag::VerDef,
            0x6fff_fffd => Tag::VerDefNum,
            0x6fff_fffe => Tag::VerNeed,
            0x6fff_ffff => Tag::VerNeedNum,
            other => Tag::Other(other),
        }
    }
}

/// One raw dynamic entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynEntry {
    pub tag: Tag,
    pub value: u64,
}

/// Size of one dynamic entry for a class.
pub fn dyn_size(class: Class) -> usize {
    class.word_size() * 2
}

/// Parse raw dynamic entries until `DT_NULL` or the end of the slice.
pub fn parse_entries(data: &[u8], class: Class, e: Endian) -> Result<Vec<DynEntry>> {
    let step = dyn_size(class);
    let mut out = Vec::new();
    let mut off = 0;
    while off + step <= data.len() {
        let (tag, value) = match class {
            Class::Elf32 => (
                e.read_u32(data, off)? as u64,
                e.read_u32(data, off + 4)? as u64,
            ),
            Class::Elf64 => (e.read_u64(data, off)?, e.read_u64(data, off + 8)?),
        };
        let tag = Tag::from_d_tag(tag);
        if tag == Tag::Null {
            break;
        }
        out.push(DynEntry { tag, value });
        off += step;
    }
    Ok(out)
}

/// Encode entries, appending the mandatory terminating `DT_NULL`.
pub fn encode_entries(entries: &[DynEntry], class: Class, e: Endian) -> Vec<u8> {
    let mut out = Vec::with_capacity((entries.len() + 1) * dyn_size(class));
    let put = |tag: u64, value: u64, out: &mut Vec<u8>| match class {
        Class::Elf32 => {
            e.put_u32(out, tag as u32);
            e.put_u32(out, value as u32);
        }
        Class::Elf64 => {
            e.put_u64(out, tag);
            e.put_u64(out, value);
        }
    };
    for ent in entries {
        put(ent.tag.d_tag(), ent.value, &mut out);
    }
    put(0, 0, &mut out);
    out
}

/// Decoded, string-resolved dynamic information — the fields Figure 3 of
/// the paper says the BDC gathers from the Dynamic Section.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct DynamicInfo {
    /// `DT_NEEDED` sonames, in file order.
    pub needed: Vec<String>,
    /// `DT_SONAME` — present on shared libraries; carries the embedded
    /// version information the BDC extracts.
    pub soname: Option<String>,
    /// `DT_RPATH` search path (legacy, pre-RUNPATH).
    pub rpath: Option<String>,
    /// `DT_RUNPATH` search path.
    pub runpath: Option<String>,
}

impl DynamicInfo {
    /// Resolve string-valued entries through the dynamic string table.
    pub fn from_entries(entries: &[DynEntry], strtab: &StrTab<'_>) -> Result<Self> {
        let mut info = DynamicInfo::default();
        for ent in entries {
            match ent.tag {
                Tag::Needed => info
                    .needed
                    .push(strtab.get(ent.value as usize)?.to_string()),
                Tag::SoName => info.soname = Some(strtab.get(ent.value as usize)?.to_string()),
                Tag::RPath => info.rpath = Some(strtab.get(ent.value as usize)?.to_string()),
                Tag::RunPath => info.runpath = Some(strtab.get(ent.value as usize)?.to_string()),
                _ => {}
            }
        }
        Ok(info)
    }

    /// The library search directories contributed by this object
    /// (RPATH/RUNPATH split on `:`), in loader priority order.
    pub fn search_dirs(&self) -> Vec<&str> {
        let mut dirs = Vec::new();
        if let Some(rp) = &self.rpath {
            dirs.extend(rp.split(':').filter(|s| !s.is_empty()));
        }
        if let Some(rp) = &self.runpath {
            dirs.extend(rp.split(':').filter(|s| !s.is_empty()));
        }
        dirs
    }

    /// Find the dynamic-table value for `tag`, if present.
    pub fn raw_value(entries: &[DynEntry], tag: Tag) -> Option<u64> {
        entries
            .iter()
            .find(|ent| ent.tag == tag)
            .map(|ent| ent.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strtab::StrTabBuilder;

    #[test]
    fn tag_round_trip() {
        for t in [
            Tag::Null,
            Tag::Needed,
            Tag::Hash,
            Tag::StrTab,
            Tag::SymTab,
            Tag::StrSz,
            Tag::SymEnt,
            Tag::SoName,
            Tag::RPath,
            Tag::RunPath,
            Tag::VerSym,
            Tag::VerDef,
            Tag::VerDefNum,
            Tag::VerNeed,
            Tag::VerNeedNum,
            Tag::Other(0x7000_0001),
        ] {
            assert_eq!(Tag::from_d_tag(t.d_tag()), t);
        }
    }

    #[test]
    fn entries_round_trip_and_stop_at_null() {
        let entries = vec![
            DynEntry {
                tag: Tag::Needed,
                value: 1,
            },
            DynEntry {
                tag: Tag::Needed,
                value: 11,
            },
            DynEntry {
                tag: Tag::SoName,
                value: 21,
            },
        ];
        for class in [Class::Elf32, Class::Elf64] {
            for e in [Endian::Little, Endian::Big] {
                let mut bytes = encode_entries(&entries, class, e);
                // Garbage after DT_NULL must be ignored.
                bytes.extend_from_slice(&[0xAA; 32]);
                let parsed = parse_entries(&bytes, class, e).unwrap();
                assert_eq!(parsed, entries);
            }
        }
    }

    #[test]
    fn dynamic_info_resolves_strings() {
        let mut st = StrTabBuilder::new();
        let libc = st.add("libc.so.6");
        let libmpi = st.add("libmpi.so.0");
        let soname = st.add("libfoo.so.2");
        let runpath = st.add("/opt/lib:/usr/local/lib");
        let bytes = st.into_bytes();
        let entries = vec![
            DynEntry {
                tag: Tag::Needed,
                value: libmpi as u64,
            },
            DynEntry {
                tag: Tag::Needed,
                value: libc as u64,
            },
            DynEntry {
                tag: Tag::SoName,
                value: soname as u64,
            },
            DynEntry {
                tag: Tag::RunPath,
                value: runpath as u64,
            },
        ];
        let info = DynamicInfo::from_entries(&entries, &StrTab::new(&bytes)).unwrap();
        assert_eq!(info.needed, vec!["libmpi.so.0", "libc.so.6"]);
        assert_eq!(info.soname.as_deref(), Some("libfoo.so.2"));
        assert_eq!(info.search_dirs(), vec!["/opt/lib", "/usr/local/lib"]);
    }

    #[test]
    fn rpath_precedes_runpath_in_search_order() {
        let info = DynamicInfo {
            needed: vec![],
            soname: None,
            rpath: Some("/a".into()),
            runpath: Some("/b".into()),
        };
        assert_eq!(info.search_dirs(), vec!["/a", "/b"]);
    }

    #[test]
    fn bad_string_offset_is_error() {
        let bytes = StrTabBuilder::new().into_bytes();
        let entries = vec![DynEntry {
            tag: Tag::Needed,
            value: 999,
        }];
        assert!(DynamicInfo::from_entries(&entries, &StrTab::new(&bytes)).is_err());
    }
}
