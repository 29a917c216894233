//! GNU symbol versioning: `.gnu.version_r` (Version References),
//! `.gnu.version_d` (Version Definitions) and `.gnu.version` (versym).
//!
//! These are the tables from which FEAM computes an application's *required
//! C library version* — "the newest version listed under the Version
//! Definitions and Version References sections" (§V.A) — and from which the
//! loader model checks per-symbol ABI compatibility.

use crate::endian::Endian;
use crate::error::{Error, Result};
use crate::strtab::{StrTab, StrTabBuilder};

/// Reserved versym index: unversioned local symbol.
pub const VER_NDX_LOCAL: u16 = 0;
/// Reserved versym index: unversioned global symbol.
pub const VER_NDX_GLOBAL: u16 = 1;
/// First index available for real version definitions/references.
pub const VER_NDX_FIRST_FREE: u16 = 2;
/// `VER_FLG_BASE` — the definition that merely names the file itself.
pub const VER_FLG_BASE: u16 = 1;
/// `VER_FLG_WEAK` — weak version reference.
pub const VER_FLG_WEAK: u16 = 2;

/// The classic SysV ELF hash, used to fill `vna_hash` / `vd_hash`.
pub fn elf_hash(name: &str) -> u32 {
    let mut h: u32 = 0;
    for &b in name.as_bytes() {
        h = (h << 4).wrapping_add(b as u32);
        let g = h & 0xf000_0000;
        if g != 0 {
            h ^= g >> 24;
        }
        h &= !g;
    }
    h
}

/// One needed version from one dependency file.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct VersionRefEntry {
    /// Version name, e.g. `GLIBC_2.5` or `OMPI_1.4`.
    pub name: String,
    /// versym index assigned to symbols bound to this version.
    pub index: u16,
    /// True when `VER_FLG_WEAK` is set.
    pub weak: bool,
}

/// All versions referenced from one dependency file (one `Verneed` record).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct VersionRef {
    /// The dependency's soname, e.g. `libc.so.6`.
    pub file: String,
    /// The versions required from that file.
    pub versions: Vec<VersionRefEntry>,
}

/// One version this object defines (one `Verdef` record).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct VersionDef {
    /// Version name, e.g. `GLIBC_2.12`; for the base definition this is the
    /// soname.
    pub name: String,
    /// versym index of symbols carrying this version.
    pub index: u16,
    /// True for the `VER_FLG_BASE` self-definition.
    pub is_base: bool,
    /// Predecessor version names (inheritance chain), newest first.
    pub parents: Vec<String>,
}

/// Zero-copy twin of [`VersionRefEntry`]: the name borrows from the
/// dynamic string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionRefEntryV<'d> {
    /// Version name, e.g. `GLIBC_2.5` or `OMPI_1.4`.
    pub name: &'d str,
    /// versym index assigned to symbols bound to this version.
    pub index: u16,
    /// True when `VER_FLG_WEAK` is set.
    pub weak: bool,
}

/// Zero-copy twin of [`VersionRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRefV<'d> {
    /// The dependency's soname, e.g. `libc.so.6`.
    pub file: &'d str,
    /// The versions required from that file.
    pub versions: Vec<VersionRefEntryV<'d>>,
}

impl VersionRefV<'_> {
    /// Materialize an owned [`VersionRef`].
    pub fn owned(&self) -> VersionRef {
        VersionRef {
            file: self.file.to_string(),
            versions: self
                .versions
                .iter()
                .map(|v| VersionRefEntry {
                    name: v.name.to_string(),
                    index: v.index,
                    weak: v.weak,
                })
                .collect(),
        }
    }
}

/// Zero-copy twin of [`VersionDef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionDefV<'d> {
    /// Version name; for the base definition this is the soname.
    pub name: &'d str,
    /// versym index of symbols carrying this version.
    pub index: u16,
    /// True for the `VER_FLG_BASE` self-definition.
    pub is_base: bool,
    /// Predecessor version names (inheritance chain), newest first.
    pub parents: Vec<&'d str>,
}

impl VersionDefV<'_> {
    /// Materialize an owned [`VersionDef`].
    pub fn owned(&self) -> VersionDef {
        VersionDef {
            name: self.name.to_string(),
            index: self.index,
            is_base: self.is_base,
            parents: self.parents.iter().map(|p| p.to_string()).collect(),
        }
    }
}

/// Parse a `.gnu.version_r` section.
pub fn parse_verneed(
    data: &[u8],
    count: usize,
    strtab: &StrTab<'_>,
    e: Endian,
) -> Result<Vec<VersionRef>> {
    Ok(parse_verneed_ref(data, count, strtab, e)?
        .iter()
        .map(VersionRefV::owned)
        .collect())
}

/// Parse a `.gnu.version_r` section without copying any name out of the
/// string table.
pub fn parse_verneed_ref<'d>(
    data: &[u8],
    count: usize,
    strtab: &StrTab<'d>,
    e: Endian,
) -> Result<Vec<VersionRefV<'d>>> {
    // `count` is attacker-controlled (sh_info / DT_VERNEEDNUM); each record
    // occupies at least 16 bytes, so cap the pre-allocation by what the
    // section could physically hold.
    let mut out = Vec::with_capacity(count.min(data.len() / 16));
    let mut off = 0usize;
    for _ in 0..count {
        let version = e.read_u16(data, off)?;
        if version != 1 {
            return Err(Error::Malformed(format!(
                "verneed record version {version}"
            )));
        }
        let cnt = e.read_u16(data, off + 2)? as usize;
        let file_off = e.read_u32(data, off + 4)? as usize;
        let aux = e.read_u32(data, off + 8)? as usize;
        let next = e.read_u32(data, off + 12)? as usize;
        let file = strtab.get(file_off)?;
        let mut versions = Vec::with_capacity(cnt);
        let mut aoff = off + aux;
        for i in 0..cnt {
            let _hash = e.read_u32(data, aoff)?;
            let flags = e.read_u16(data, aoff + 4)?;
            let other = e.read_u16(data, aoff + 6)?;
            let name_off = e.read_u32(data, aoff + 8)? as usize;
            let anext = e.read_u32(data, aoff + 12)? as usize;
            versions.push(VersionRefEntryV {
                name: strtab.get(name_off)?,
                index: other & 0x7fff,
                weak: flags & VER_FLG_WEAK != 0,
            });
            if i + 1 < cnt {
                if anext == 0 {
                    return Err(Error::Malformed("vernaux chain ended early".into()));
                }
                aoff += anext;
            }
        }
        out.push(VersionRefV { file, versions });
        if next == 0 {
            break;
        }
        off += next;
    }
    Ok(out)
}

/// Parse a `.gnu.version_d` section.
pub fn parse_verdef(
    data: &[u8],
    count: usize,
    strtab: &StrTab<'_>,
    e: Endian,
) -> Result<Vec<VersionDef>> {
    Ok(parse_verdef_ref(data, count, strtab, e)?
        .iter()
        .map(VersionDefV::owned)
        .collect())
}

/// Parse a `.gnu.version_d` section without copying any name out of the
/// string table.
pub fn parse_verdef_ref<'d>(
    data: &[u8],
    count: usize,
    strtab: &StrTab<'d>,
    e: Endian,
) -> Result<Vec<VersionDefV<'d>>> {
    // Same guard as `parse_verneed_ref`: a verdef record is at least 20 bytes.
    let mut out = Vec::with_capacity(count.min(data.len() / 20));
    let mut off = 0usize;
    for _ in 0..count {
        let version = e.read_u16(data, off)?;
        if version != 1 {
            return Err(Error::Malformed(format!("verdef record version {version}")));
        }
        let flags = e.read_u16(data, off + 2)?;
        let ndx = e.read_u16(data, off + 4)?;
        let cnt = e.read_u16(data, off + 6)? as usize;
        let _hash = e.read_u32(data, off + 8)?;
        let aux = e.read_u32(data, off + 12)? as usize;
        let next = e.read_u32(data, off + 16)? as usize;
        if cnt == 0 {
            return Err(Error::Malformed("verdef with zero aux entries".into()));
        }
        let mut names = Vec::with_capacity(cnt);
        let mut aoff = off + aux;
        for i in 0..cnt {
            let name_off = e.read_u32(data, aoff)? as usize;
            let anext = e.read_u32(data, aoff + 4)? as usize;
            names.push(strtab.get(name_off)?);
            if i + 1 < cnt {
                if anext == 0 {
                    return Err(Error::Malformed("verdaux chain ended early".into()));
                }
                aoff += anext;
            }
        }
        let name = names.remove(0);
        out.push(VersionDefV {
            name,
            index: ndx,
            is_base: flags & VER_FLG_BASE != 0,
            parents: names,
        });
        if next == 0 {
            break;
        }
        off += next;
    }
    Ok(out)
}

/// Encode `.gnu.version_r` bytes; also interns names into `strtab`.
pub fn encode_verneed(refs: &[VersionRef], strtab: &mut StrTabBuilder, e: Endian) -> Vec<u8> {
    let mut out = Vec::new();
    for (ri, r) in refs.iter().enumerate() {
        let cnt = r.versions.len() as u16;
        let record_len = 16 + 16 * r.versions.len();
        let next = if ri + 1 < refs.len() {
            record_len as u32
        } else {
            0
        };
        e.put_u16(&mut out, 1); // vn_version
        e.put_u16(&mut out, cnt);
        e.put_u32(&mut out, strtab.add(&r.file));
        e.put_u32(&mut out, 16); // vn_aux: auxes follow immediately
        e.put_u32(&mut out, next);
        for (ai, a) in r.versions.iter().enumerate() {
            e.put_u32(&mut out, elf_hash(&a.name));
            e.put_u16(&mut out, if a.weak { VER_FLG_WEAK } else { 0 });
            e.put_u16(&mut out, a.index);
            e.put_u32(&mut out, strtab.add(&a.name));
            e.put_u32(&mut out, if ai + 1 < r.versions.len() { 16 } else { 0 });
        }
    }
    out
}

/// Encode `.gnu.version_d` bytes; also interns names into `strtab`.
pub fn encode_verdef(defs: &[VersionDef], strtab: &mut StrTabBuilder, e: Endian) -> Vec<u8> {
    let mut out = Vec::new();
    for (di, d) in defs.iter().enumerate() {
        let cnt = 1 + d.parents.len();
        let record_len = 20 + 8 * cnt;
        let next = if di + 1 < defs.len() {
            record_len as u32
        } else {
            0
        };
        e.put_u16(&mut out, 1); // vd_version
        e.put_u16(&mut out, if d.is_base { VER_FLG_BASE } else { 0 });
        e.put_u16(&mut out, d.index);
        e.put_u16(&mut out, cnt as u16);
        e.put_u32(&mut out, elf_hash(&d.name));
        e.put_u32(&mut out, 20); // vd_aux
        e.put_u32(&mut out, next);
        let mut names: Vec<&str> = vec![&d.name];
        names.extend(d.parents.iter().map(String::as_str));
        for (ni, n) in names.iter().enumerate() {
            e.put_u32(&mut out, strtab.add(n));
            e.put_u32(&mut out, if ni + 1 < names.len() { 8 } else { 0 });
        }
    }
    out
}

/// Parse a `.gnu.version` (versym) section: one `u16` per dynamic symbol.
pub fn parse_versym(data: &[u8], e: Endian) -> Result<Vec<u16>> {
    if !data.len().is_multiple_of(2) {
        return Err(Error::Malformed("versym section has odd length".into()));
    }
    (0..data.len() / 2)
        .map(|i| e.read_u16(data, i * 2))
        .collect()
}

/// Encode a versym section.
pub fn encode_versym(indices: &[u16], e: Endian) -> Vec<u8> {
    let mut out = Vec::with_capacity(indices.len() * 2);
    for &v in indices {
        e.put_u16(&mut out, v);
    }
    out
}

/// A parsed symbol-version *name*, e.g. `GLIBC_2.3.4` →
/// prefix `GLIBC`, numbers `[2, 3, 4]`.
///
/// Ordering compares the numeric components lexicographically, which gives
/// the usual glibc ordering (2.3.4 < 2.5 < 2.12). Names without a numeric
/// suffix carry an empty number list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize)]
pub struct VersionName {
    /// Text before the last `_`, e.g. `GLIBC`, `GCC`, `OMPI`.
    pub prefix: String,
    /// Dot-separated numeric components after the `_`.
    pub numbers: Vec<u32>,
}

impl VersionName {
    /// Parse `PREFIX_maj.min[.patch…]`; returns `None` when the text after
    /// the final underscore is not a dotted number sequence.
    pub fn parse(name: &str) -> Option<Self> {
        let (prefix, nums) = name.rsplit_once('_')?;
        if prefix.is_empty() || nums.is_empty() {
            return None;
        }
        let numbers: Option<Vec<u32>> = nums.split('.').map(|p| p.parse().ok()).collect();
        Some(VersionName {
            prefix: prefix.to_string(),
            numbers: numbers?,
        })
    }

    /// Render back to `PREFIX_x.y.z`.
    pub fn render(&self) -> String {
        let nums: Vec<String> = self.numbers.iter().map(u32::to_string).collect();
        format!("{}_{}", self.prefix, nums.join("."))
    }

    /// Compare two names with the same prefix; `None` if prefixes differ.
    pub fn cmp_same_prefix(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (self.prefix == other.prefix).then(|| self.numbers.cmp(&other.numbers))
    }
}

/// From a set of referenced/defined version names, compute the newest
/// version with the given prefix (e.g. `"GLIBC"`), as the BDC does when
/// deriving the *required C library version*.
pub fn newest_with_prefix<'a, I>(names: I, prefix: &str) -> Option<VersionName>
where
    I: IntoIterator<Item = &'a str>,
{
    names
        .into_iter()
        .filter_map(VersionName::parse)
        .filter(|v| v.prefix == prefix)
        .max_by(|a, b| a.numbers.cmp(&b.numbers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elf_hash_matches_known_values() {
        // Reference values from the System V ABI hashing function.
        assert_eq!(elf_hash(""), 0);
        assert_eq!(elf_hash("GLIBC_2.0"), 0x0d69_6910);
    }

    #[test]
    fn verneed_round_trip_multiple_files() {
        let refs = vec![
            VersionRef {
                file: "libc.so.6".into(),
                versions: vec![
                    VersionRefEntry {
                        name: "GLIBC_2.2.5".into(),
                        index: 2,
                        weak: false,
                    },
                    VersionRefEntry {
                        name: "GLIBC_2.12".into(),
                        index: 3,
                        weak: true,
                    },
                ],
            },
            VersionRef {
                file: "libmpi.so.0".into(),
                versions: vec![VersionRefEntry {
                    name: "OMPI_1.4".into(),
                    index: 4,
                    weak: false,
                }],
            },
        ];
        for e in [Endian::Little, Endian::Big] {
            let mut st = StrTabBuilder::new();
            let bytes = encode_verneed(&refs, &mut st, e);
            let stb = st.into_bytes();
            let parsed = parse_verneed(&bytes, refs.len(), &StrTab::new(&stb), e).unwrap();
            assert_eq!(parsed, refs);
        }
    }

    #[test]
    fn verdef_round_trip_with_parents() {
        let defs = vec![
            VersionDef {
                name: "libfoo.so.2".into(),
                index: 1,
                is_base: true,
                parents: vec![],
            },
            VersionDef {
                name: "FOO_1.0".into(),
                index: 2,
                is_base: false,
                parents: vec![],
            },
            VersionDef {
                name: "FOO_1.2".into(),
                index: 3,
                is_base: false,
                parents: vec!["FOO_1.0".into()],
            },
        ];
        for e in [Endian::Little, Endian::Big] {
            let mut st = StrTabBuilder::new();
            let bytes = encode_verdef(&defs, &mut st, e);
            let stb = st.into_bytes();
            let parsed = parse_verdef(&bytes, defs.len(), &StrTab::new(&stb), e).unwrap();
            assert_eq!(parsed, defs);
        }
    }

    #[test]
    fn versym_round_trip() {
        let idx = vec![VER_NDX_LOCAL, VER_NDX_GLOBAL, 2, 3, 0x8003];
        for e in [Endian::Little, Endian::Big] {
            let bytes = encode_versym(&idx, e);
            assert_eq!(parse_versym(&bytes, e).unwrap(), idx);
        }
    }

    #[test]
    fn version_name_parse_and_order() {
        let a = VersionName::parse("GLIBC_2.3.4").unwrap();
        let b = VersionName::parse("GLIBC_2.5").unwrap();
        let c = VersionName::parse("GLIBC_2.12").unwrap();
        assert_eq!(a.prefix, "GLIBC");
        assert_eq!(a.numbers, vec![2, 3, 4]);
        assert_eq!(a.cmp_same_prefix(&b), Some(std::cmp::Ordering::Less));
        assert_eq!(b.cmp_same_prefix(&c), Some(std::cmp::Ordering::Less));
        assert_eq!(a.render(), "GLIBC_2.3.4");
        // Different prefixes are incomparable.
        let g = VersionName::parse("GCC_3.0").unwrap();
        assert_eq!(a.cmp_same_prefix(&g), None);
    }

    #[test]
    fn version_name_rejects_non_numeric() {
        assert!(VersionName::parse("GLIBC_PRIVATE").is_none());
        assert!(VersionName::parse("noversion").is_none());
        assert!(VersionName::parse("_2.0").is_none());
    }

    #[test]
    fn newest_with_prefix_picks_numeric_max() {
        let names = [
            "GLIBC_2.2.5",
            "GLIBC_2.12",
            "GLIBC_2.3.4",
            "GCC_3.0",
            "GLIBC_PRIVATE",
        ];
        let newest = newest_with_prefix(names.iter().copied(), "GLIBC").unwrap();
        assert_eq!(newest.render(), "GLIBC_2.12");
        assert!(newest_with_prefix(names.iter().copied(), "OMPI").is_none());
    }

    #[test]
    fn malformed_verneed_is_error() {
        let mut st = StrTabBuilder::new();
        let refs = vec![VersionRef {
            file: "libc.so.6".into(),
            versions: vec![VersionRefEntry {
                name: "GLIBC_2.0".into(),
                index: 2,
                weak: false,
            }],
        }];
        let mut bytes = encode_verneed(&refs, &mut st, Endian::Little);
        bytes[0] = 9; // bad vn_version
        let stb = st.into_bytes();
        assert!(parse_verneed(&bytes, 1, &StrTab::new(&stb), Endian::Little).is_err());
    }
}
