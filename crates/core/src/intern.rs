//! Name interning for the description pipeline.
//!
//! A described binary and its recursive library graph repeat the same
//! handful of names — sonames, version strings, compiler comments — across
//! dozens of `BinaryDescription`s per request. Two pieces keep that cheap:
//!
//! * [`IStr`] — an immutable refcounted string. Cloning a description (the
//!   BDC cache hit path) bumps reference counts instead of copying name
//!   bytes; serialization is byte-identical to `String`, so report JSON
//!   and golden fingerprints are unaffected.
//! * [`Interner`] — a per-request arena mapping names to stable dense ids
//!   and shared `IStr` storage. `collect_libraries` threads one through a
//!   request so every library that mentions `libc.so.6` holds the same
//!   allocation. Ids are assigned in first-intern order and stay stable
//!   for the arena's lifetime; `reset` recycles the arena between
//!   requests.
//!
//! Properties (id stability, round-trips, collision freedom, reset
//! safety) are pinned by `crates/core/tests/intern_properties.rs`.

use serde::{Serialize, Value};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable string with `String` serialization.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IStr(Arc<str>);

impl IStr {
    /// Intern-free construction (one allocation, shared thereafter).
    pub fn new(s: &str) -> Self {
        IStr(Arc::from(s))
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        IStr::new(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        IStr(Arc::from(s))
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

// Serialized exactly like `String` so descriptions holding `IStr` fields
// stay byte-identical to earlier releases.
impl Serialize for IStr {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

/// Dense id of one interned name, stable for the arena's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The id as a dense index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-request name arena: first-intern order assigns dense ids, and
/// every equal name shares one `IStr` allocation.
#[derive(Debug, Default)]
pub struct Interner {
    names: Vec<IStr>,
    index: HashMap<IStr, NameId>,
}

impl Interner {
    /// An empty arena.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its stable id. Re-interning an existing name
    /// returns the original id regardless of what was interned in between.
    pub fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("interner overflow"));
        let name = IStr::new(s);
        self.names.push(name.clone());
        self.index.insert(name, id);
        id
    }

    /// Intern `s` and return the shared [`IStr`] for it.
    pub fn istr(&mut self, s: &str) -> IStr {
        let id = self.intern(s);
        self.names[id.index()].clone()
    }

    /// The name behind `id`. Panics on a foreign id (an id from another
    /// arena generation after [`reset`](Self::reset)).
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Clear the arena between requests. Previously issued ids become
    /// invalid; previously issued `IStr`s remain valid (they own their
    /// storage).
    pub fn reset(&mut self) {
        self.names.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn istr_behaves_like_str() {
        let s = IStr::new("libc.so.6");
        assert_eq!(s, "libc.so.6");
        assert_eq!(s.len(), 9);
        assert!(s.starts_with("libc"));
        assert_eq!(format!("{s}"), "libc.so.6");
        assert_eq!(format!("{s:?}"), "\"libc.so.6\"");
    }

    #[test]
    fn istr_serializes_exactly_like_string() {
        let s = IStr::new("GLIBC_2.5");
        assert_eq!(s.to_value(), "GLIBC_2.5".to_string().to_value());
        assert_eq!(s.to_value(), Value::String("GLIBC_2.5".into()));
    }

    #[test]
    fn interner_dedupes_and_round_trips() {
        let mut arena = Interner::new();
        let a = arena.intern("libmpi.so.0");
        let b = arena.intern("libc.so.6");
        assert_ne!(a, b);
        assert_eq!(arena.intern("libmpi.so.0"), a);
        assert_eq!(arena.resolve(a), "libmpi.so.0");
        assert_eq!(arena.resolve(b), "libc.so.6");
        assert_eq!(arena.len(), 2);
        let x = arena.istr("libc.so.6");
        let y = arena.istr("libc.so.6");
        assert!(Arc::ptr_eq(&x.0, &y.0), "equal names share one allocation");
    }
}
