//! ELF note sections (`SHT_NOTE` / `PT_NOTE`).
//!
//! The note FEAM-era tooling cares about is `NT_GNU_ABI_TAG` in
//! `.note.ABI-tag`: it records the OS and the *minimum kernel version* the
//! binary was linked for — provenance that complements the `.comment`
//! section when describing where a binary was built.

use crate::endian::{slice, Endian};
use crate::error::{Error, Result};

/// `NT_GNU_ABI_TAG`.
pub const NT_GNU_ABI_TAG: u32 = 1;

/// Operating systems named by `NT_GNU_ABI_TAG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum AbiTagOs {
    Linux,
    Gnu,
    Solaris,
    FreeBsd,
    Other(u32),
}

impl AbiTagOs {
    /// Encode to the note's first word.
    pub fn value(self) -> u32 {
        match self {
            AbiTagOs::Linux => 0,
            AbiTagOs::Gnu => 1,
            AbiTagOs::Solaris => 2,
            AbiTagOs::FreeBsd => 3,
            AbiTagOs::Other(v) => v,
        }
    }

    /// Decode from the note's first word.
    pub fn from_value(v: u32) -> Self {
        match v {
            0 => AbiTagOs::Linux,
            1 => AbiTagOs::Gnu,
            2 => AbiTagOs::Solaris,
            3 => AbiTagOs::FreeBsd,
            other => AbiTagOs::Other(other),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> String {
        match self {
            AbiTagOs::Linux => "Linux".into(),
            AbiTagOs::Gnu => "GNU".into(),
            AbiTagOs::Solaris => "Solaris".into(),
            AbiTagOs::FreeBsd => "FreeBSD".into(),
            AbiTagOs::Other(v) => format!("unknown({v})"),
        }
    }
}

/// One raw ELF note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Owner name, e.g. `GNU`.
    pub name: String,
    /// Note type (`n_type`), owner-specific.
    pub kind: u32,
    /// Descriptor bytes.
    pub desc: Vec<u8>,
}

/// The decoded `NT_GNU_ABI_TAG` payload.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct AbiTag {
    pub os: AbiTagOs,
    /// Minimum kernel version (major, minor, patch).
    pub kernel: (u32, u32, u32),
}

impl AbiTag {
    /// Render like `readelf -n`: `OS: Linux, ABI: 2.6.9`.
    pub fn render(&self) -> String {
        format!(
            "OS: {}, ABI: {}.{}.{}",
            self.os.name(),
            self.kernel.0,
            self.kernel.1,
            self.kernel.2
        )
    }
}

fn align4(v: usize) -> usize {
    v.div_ceil(4) * 4
}

/// Parse all notes in a note section/segment.
pub fn parse_notes(data: &[u8], e: Endian) -> Result<Vec<Note>> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 12 <= data.len() {
        let namesz = e.read_u32(data, off)? as usize;
        let descsz = e.read_u32(data, off + 4)? as usize;
        let kind = e.read_u32(data, off + 8)?;
        off += 12;
        let name_raw = slice(data, off, namesz)?;
        let name_end = name_raw
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(name_raw.len());
        let name = String::from_utf8(name_raw[..name_end].to_vec())
            .map_err(|_| Error::Malformed("non-UTF-8 note owner name".into()))?;
        off += align4(namesz);
        let desc = slice(data, off, descsz)?.to_vec();
        off += align4(descsz);
        out.push(Note { name, kind, desc });
    }
    Ok(out)
}

/// Encode notes into section bytes.
pub fn encode_notes(notes: &[Note], e: Endian) -> Vec<u8> {
    let mut out = Vec::new();
    for n in notes {
        let name_bytes = n.name.as_bytes();
        e.put_u32(&mut out, (name_bytes.len() + 1) as u32);
        e.put_u32(&mut out, n.desc.len() as u32);
        e.put_u32(&mut out, n.kind);
        out.extend_from_slice(name_bytes);
        out.push(0);
        while out.len() % 4 != 0 {
            out.push(0);
        }
        out.extend_from_slice(&n.desc);
        while out.len() % 4 != 0 {
            out.push(0);
        }
    }
    out
}

/// Build the `NT_GNU_ABI_TAG` note for an OS + minimum kernel version.
pub fn abi_tag_note(tag: &AbiTag, e: Endian) -> Note {
    let mut desc = Vec::with_capacity(16);
    e.put_u32(&mut desc, tag.os.value());
    e.put_u32(&mut desc, tag.kernel.0);
    e.put_u32(&mut desc, tag.kernel.1);
    e.put_u32(&mut desc, tag.kernel.2);
    Note {
        name: "GNU".into(),
        kind: NT_GNU_ABI_TAG,
        desc,
    }
}

/// Extract the ABI tag from a parsed note list, if present.
pub fn find_abi_tag(notes: &[Note], e: Endian) -> Option<AbiTag> {
    let n = notes
        .iter()
        .find(|n| n.name == "GNU" && n.kind == NT_GNU_ABI_TAG)?;
    if n.desc.len() < 16 {
        return None;
    }
    Some(AbiTag {
        os: AbiTagOs::from_value(e.read_u32(&n.desc, 0).ok()?),
        kernel: (
            e.read_u32(&n.desc, 4).ok()?,
            e.read_u32(&n.desc, 8).ok()?,
            e.read_u32(&n.desc, 12).ok()?,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_tag_round_trip() {
        for e in [Endian::Little, Endian::Big] {
            let tag = AbiTag {
                os: AbiTagOs::Linux,
                kernel: (2, 6, 9),
            };
            let note = abi_tag_note(&tag, e);
            let bytes = encode_notes(std::slice::from_ref(&note), e);
            let parsed = parse_notes(&bytes, e).unwrap();
            assert_eq!(parsed, vec![note]);
            let found = find_abi_tag(&parsed, e).unwrap();
            assert_eq!(found, tag);
            assert_eq!(found.render(), "OS: Linux, ABI: 2.6.9");
        }
    }

    #[test]
    fn multiple_notes_parse_in_order() {
        let e = Endian::Little;
        let notes = vec![
            Note {
                name: "GNU".into(),
                kind: NT_GNU_ABI_TAG,
                desc: vec![0; 16],
            },
            Note {
                name: "FEAM".into(),
                kind: 99,
                desc: vec![1, 2, 3],
            }, // unaligned desc
        ];
        let bytes = encode_notes(&notes, e);
        let parsed = parse_notes(&bytes, e).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "GNU");
        assert_eq!(parsed[1].name, "FEAM");
        assert_eq!(parsed[1].desc, vec![1, 2, 3]);
    }

    #[test]
    fn truncated_note_is_error() {
        let e = Endian::Little;
        let tag = AbiTag {
            os: AbiTagOs::Linux,
            kernel: (2, 6, 18),
        };
        let bytes = encode_notes(&[abi_tag_note(&tag, e)], e);
        assert!(parse_notes(&bytes[..bytes.len() - 4], e).is_err());
    }

    #[test]
    fn missing_abi_tag_returns_none() {
        let notes = vec![Note {
            name: "FEAM".into(),
            kind: 7,
            desc: vec![],
        }];
        assert!(find_abi_tag(&notes, Endian::Little).is_none());
        // Present but short descriptor.
        let notes = vec![Note {
            name: "GNU".into(),
            kind: NT_GNU_ABI_TAG,
            desc: vec![0; 8],
        }];
        assert!(find_abi_tag(&notes, Endian::Little).is_none());
    }

    #[test]
    fn os_values_round_trip() {
        for os in [
            AbiTagOs::Linux,
            AbiTagOs::Gnu,
            AbiTagOs::Solaris,
            AbiTagOs::FreeBsd,
            AbiTagOs::Other(12),
        ] {
            assert_eq!(AbiTagOs::from_value(os.value()), os);
        }
    }
}
