//! Shared-library naming and version-compatibility conventions.
//!
//! §III.D of the paper: "Shared library names include major and minor
//! release version numbers. The naming convention is of the format
//! `lib<name>.so.<major_version>.<minor_version>`. Libraries with matching
//! major versions are guaranteed to have compatible APIs."

use std::fmt;

/// A parsed shared-object name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize)]
pub struct Soname {
    /// The stem, e.g. `libmpich` for `libmpich.so.1.2`.
    pub base: String,
    /// Version components after `.so.`, e.g. `[1, 2]`; empty for a bare
    /// `lib<name>.so`.
    pub version: Vec<u32>,
}

impl Soname {
    /// Parse `lib<name>.so[.<major>[.<minor>[.<patch>…]]]`.
    ///
    /// Returns `None` when the name does not contain a `.so` marker. Any
    /// non-numeric trailing component (e.g. `libfoo.so.debug`) also yields
    /// `None`, because such files are not loadable sonames.
    pub fn parse(name: &str) -> Option<Self> {
        let idx = name.find(".so")?;
        let base = &name[..idx];
        if base.is_empty() {
            return None;
        }
        let rest = &name[idx + 3..];
        if rest.is_empty() {
            return Some(Soname {
                base: base.to_string(),
                version: Vec::new(),
            });
        }
        let rest = rest.strip_prefix('.')?;
        let version: Option<Vec<u32>> = rest.split('.').map(|p| p.parse().ok()).collect();
        Some(Soname {
            base: base.to_string(),
            version: version?,
        })
    }

    /// Major version, when present.
    pub fn major(&self) -> Option<u32> {
        self.version.first().copied()
    }

    /// Minor version, when present.
    pub fn minor(&self) -> Option<u32> {
        self.version.get(1).copied()
    }

    /// The paper's compatibility rule: same base name and same major
    /// version ⇒ compatible API. A request without a major version (plain
    /// `lib<name>.so`, as used at link time) accepts any major.
    pub fn api_compatible_with(&self, provided: &Soname) -> bool {
        if self.base != provided.base {
            return false;
        }
        match self.major() {
            None => true,
            Some(want) => provided.major() == Some(want),
        }
    }

    /// Exact-soname match as the dynamic loader performs (`DT_NEEDED` string
    /// equality) — stricter than [`Self::api_compatible_with`].
    pub fn loader_matches(&self, provided: &Soname) -> bool {
        self == provided
    }
}

impl fmt::Display for Soname {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.so", self.base)?;
        for v in &self.version {
            write!(f, ".{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_name() {
        let s = Soname::parse("libmpich.so.1.2").unwrap();
        assert_eq!(s.base, "libmpich");
        assert_eq!(s.major(), Some(1));
        assert_eq!(s.minor(), Some(2));
        assert_eq!(s.to_string(), "libmpich.so.1.2");
    }

    #[test]
    fn parse_bare_and_major_only() {
        let bare = Soname::parse("libmpi.so").unwrap();
        assert!(bare.version.is_empty());
        let major = Soname::parse("libmpi.so.0").unwrap();
        assert_eq!(major.major(), Some(0));
        assert_eq!(major.minor(), None);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(Soname::parse("not-a-library").is_none());
        assert!(Soname::parse(".so.1").is_none());
        assert!(Soname::parse("libfoo.so.debug").is_none());
        assert!(Soname::parse("libfoo.sox").is_none()); // ".sox" ≠ ".so."
    }

    #[test]
    fn same_major_is_api_compatible() {
        let want = Soname::parse("libibverbs.so.1").unwrap();
        let have = Soname::parse("libibverbs.so.1.0").unwrap();
        assert!(want.api_compatible_with(&have));
    }

    #[test]
    fn different_major_is_incompatible() {
        let want = Soname::parse("libgfortran.so.1").unwrap();
        let have = Soname::parse("libgfortran.so.3").unwrap();
        assert!(!want.api_compatible_with(&have));
        assert!(!want.loader_matches(&have));
    }

    #[test]
    fn different_base_is_incompatible() {
        let want = Soname::parse("libmpich.so.1").unwrap();
        let have = Soname::parse("libmpi.so.1").unwrap();
        assert!(!want.api_compatible_with(&have));
    }

    #[test]
    fn unversioned_request_accepts_any_major() {
        let want = Soname::parse("libm.so").unwrap();
        let have = Soname::parse("libm.so.6").unwrap();
        assert!(want.api_compatible_with(&have));
        assert!(!want.loader_matches(&have));
    }
}
