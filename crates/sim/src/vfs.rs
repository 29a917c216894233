//! In-memory Unix-like filesystem.
//!
//! Every simulated site owns one `Vfs` holding its `/proc` and `/etc`
//! description files, module databases, installed shared libraries (real
//! ELF images from `feam-elf`) and tool binaries. FEAM's discovery logic
//! runs against this tree exactly as it would against a real filesystem:
//! `find`-style walks, `locate`-style name lookups, symlink resolution.
//!
//! Two things keep the simulator's primitives cheap without changing what
//! they return. An exact-name index (basename → sorted paths), kept in
//! step with every mutation, answers `find -name` from one entry instead of
//! a walk over every node. And [`normalized`] hands back an already-normal
//! path as is, so lookups and existence checks allocate only for unusual
//! spellings or when a symlink is followed. Both speed up the simulation
//! only; a real site's `find` costs what it costs.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// File contents: binary images are shared (`Arc`) because library images
/// are cloned into bundles and staging areas without copying megabytes.
#[derive(Debug, Clone)]
pub enum Content {
    /// Raw bytes (ELF images).
    Bytes(Arc<Vec<u8>>),
    /// UTF-8 text (config files, module files, scripts).
    Text(String),
}

impl Content {
    /// View as bytes regardless of variant.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Content::Bytes(b) => b,
            Content::Text(t) => t.as_bytes(),
        }
    }

    /// View as text, if valid UTF-8.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Content::Bytes(b) => std::str::from_utf8(b).ok(),
            Content::Text(t) => Some(t),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One node in the tree.
#[derive(Debug, Clone)]
pub enum Node {
    Dir,
    File { content: Content, executable: bool },
    Symlink { target: String },
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    NotFound(String),
    NotADirectory(String),
    NotAFile(String),
    SymlinkLoop(String),
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            VfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            VfsError::NotAFile(p) => write!(f, "not a regular file: {p}"),
            VfsError::SymlinkLoop(p) => write!(f, "too many levels of symbolic links: {p}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Normalize a path: collapse `//`, resolve `.` and `..` textually, ensure
/// a leading `/`.
pub fn normalize(path: &str) -> String {
    let mut stack: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                stack.pop();
            }
            c => stack.push(c),
        }
    }
    let mut out = String::from("/");
    out.push_str(&stack.join("/"));
    out
}

/// [`normalize`] without the copy when `path` is already normal: absolute,
/// no empty, `.` or `..` component, no trailing `/` (except `/` itself).
pub fn normalized(path: &str) -> Cow<'_, str> {
    if is_normal(path.as_bytes()) {
        Cow::Borrowed(path)
    } else {
        Cow::Owned(normalize(path))
    }
}

/// The rule [`normalized`] borrows under, decided in one pass over the
/// bytes: `len` counts the current component's bytes and `dots` its
/// leading dots, so a component is `.` or `..` when both agree and are at
/// most 2, and empty when `len` is 0 at a `/` or at the end.
fn is_normal(path: &[u8]) -> bool {
    let Some((b'/', rest)) = path.split_first() else {
        return false;
    };
    if rest.is_empty() {
        return true;
    }
    let bad = |len: usize, dots: usize| len == 0 || (dots == len && len <= 2);
    let (mut len, mut dots) = (0, 0);
    for &c in rest {
        if c == b'/' {
            if bad(len, dots) {
                return false;
            }
            (len, dots) = (0, 0);
        } else {
            if c == b'.' && dots == len {
                dots += 1;
            }
            len += 1;
        }
    }
    !bad(len, dots)
}

/// Join a possibly-relative `name` onto the directory of `base`.
pub fn join(base_dir: &str, name: &str) -> String {
    if name.starts_with('/') {
        normalized(name).into_owned()
    } else {
        let joined = format!("{base_dir}/{name}");
        match normalized(&joined) {
            Cow::Borrowed(_) => joined,
            Cow::Owned(normal) => normal,
        }
    }
}

/// Final path component.
pub fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Directory part of a path (no trailing slash; `/` for root entries).
pub fn dirname(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "/",
    }
}

/// Is the normal path `path` the normal directory `root` or below it?
fn is_under(path: &str, root: &str) -> bool {
    root == "/"
        || path
            .strip_prefix(root)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Where a symlink walk ended.
enum Walk<'p, 'a> {
    Found(Cow<'p, str>, &'a Node),
    Missing(Cow<'p, str>),
    Loop,
}

/// The in-memory filesystem. Paths are absolute, normalized strings.
///
/// Beside the tree it keeps an exact-name index: basename → every path
/// with that basename, sorted. Every insertion and removal updates both,
/// so `find -name` reads one index entry instead of walking the tree.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    nodes: BTreeMap<String, Node>,
    names: HashMap<String, Vec<String>>,
}

impl Vfs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        let mut fs = Vfs::default();
        fs.insert("/".to_string(), Node::Dir);
        fs
    }

    /// Put `node` at the normal path `path`, indexing the path when new.
    fn insert(&mut self, path: String, node: Node) {
        if let Some(slot) = self.nodes.get_mut(&path) {
            *slot = node;
            return;
        }
        let paths = self.names.entry(basename(&path).to_string()).or_default();
        if let Err(i) = paths.binary_search(&path) {
            paths.insert(i, path.clone());
        }
        self.nodes.insert(path, node);
    }

    /// Create a directory and all missing parents.
    pub fn mkdir_p(&mut self, path: &str) {
        let path = normalized(path);
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur.push('/');
            cur.push_str(comp);
            if !self.nodes.contains_key(&cur) {
                self.insert(cur.clone(), Node::Dir);
            }
        }
        if !self.nodes.contains_key("/") {
            self.insert("/".to_string(), Node::Dir);
        }
    }

    /// Write a file, creating parents; overwrites an existing file.
    pub fn write(&mut self, path: &str, content: Content) {
        self.put_file(path, content, false);
    }

    fn put_file(&mut self, path: &str, content: Content, executable: bool) {
        let path = normalize(path);
        self.mkdir_p(dirname(&path));
        self.insert(
            path,
            Node::File {
                content,
                executable,
            },
        );
    }

    /// Write a text file.
    pub fn write_text(&mut self, path: &str, text: impl Into<String>) {
        self.write(path, Content::Text(text.into()));
    }

    /// Write a binary file (shared bytes).
    pub fn write_bytes(&mut self, path: &str, bytes: Arc<Vec<u8>>) {
        self.write(path, Content::Bytes(bytes));
    }

    /// Write an executable binary file.
    pub fn write_executable(&mut self, path: &str, bytes: Arc<Vec<u8>>) {
        self.put_file(path, Content::Bytes(bytes), true);
    }

    /// Mark an existing file executable.
    pub fn set_executable(&mut self, path: &str) -> Result<(), VfsError> {
        let path = normalize(path);
        match self.nodes.get_mut(&path) {
            Some(Node::File { executable, .. }) => {
                *executable = true;
                Ok(())
            }
            Some(_) => Err(VfsError::NotAFile(path)),
            None => Err(VfsError::NotFound(path)),
        }
    }

    /// Create a symlink at `path` pointing to `target` (absolute or
    /// relative to the link's directory).
    pub fn symlink(&mut self, path: &str, target: &str) {
        let path = normalize(path);
        self.mkdir_p(dirname(&path));
        self.insert(
            path,
            Node::Symlink {
                target: target.to_string(),
            },
        );
    }

    /// Remove a file, symlink, or (recursively) a directory.
    pub fn remove(&mut self, path: &str) {
        let path = normalize(path);
        let prefix = format!("{path}/");
        let mut doomed: Vec<String> = self
            .nodes
            .range(prefix.clone()..)
            .map(|(p, _)| p)
            .take_while(|p| p.starts_with(&prefix))
            .cloned()
            .collect();
        if self.nodes.contains_key(&path) {
            doomed.push(path);
        }
        for p in doomed {
            self.nodes.remove(&p);
            let name = basename(&p);
            if let Some(paths) = self.names.get_mut(name) {
                if let Ok(i) = paths.binary_search(&p) {
                    paths.remove(i);
                }
                if paths.is_empty() {
                    self.names.remove(name);
                }
            }
        }
    }

    /// Raw node lookup without following symlinks.
    pub fn lookup(&self, path: &str) -> Option<&Node> {
        self.nodes.get(&*normalized(path))
    }

    /// Follow symlinks from `path` (bounded depth). Allocates only when
    /// `path` is not normal or a link is followed.
    fn walk<'p, 'a>(&'a self, path: &'p str) -> Walk<'p, 'a> {
        let mut cur = normalized(path);
        for _ in 0..16 {
            match self.nodes.get(cur.as_ref()) {
                None => return Walk::Missing(cur),
                Some(Node::Symlink { target }) => {
                    cur = Cow::Owned(join(dirname(&cur), target));
                }
                Some(node) => return Walk::Found(cur, node),
            }
        }
        Walk::Loop
    }

    /// Resolve a path, following symlinks (bounded depth).
    pub fn resolve(&self, path: &str) -> Result<(String, &Node), VfsError> {
        match self.walk(path) {
            Walk::Found(real, node) => Ok((real.into_owned(), node)),
            Walk::Missing(p) => Err(VfsError::NotFound(p.into_owned())),
            Walk::Loop => Err(VfsError::SymlinkLoop(normalize(path))),
        }
    }

    /// [`Vfs::resolve`] without the error detail: the real path and its
    /// node, borrowed from `path` when it is normal and no link was
    /// followed.
    pub fn resolved<'p, 'a>(&'a self, path: &'p str) -> Option<(Cow<'p, str>, &'a Node)> {
        match self.walk(path) {
            Walk::Found(real, node) => Some((real, node)),
            Walk::Missing(_) | Walk::Loop => None,
        }
    }

    /// Does the path exist (following symlinks)?
    pub fn exists(&self, path: &str) -> bool {
        self.resolved(path).is_some()
    }

    /// Read file contents, following symlinks.
    pub fn read(&self, path: &str) -> Result<&Content, VfsError> {
        match self.walk(path) {
            Walk::Found(_, Node::File { content, .. }) => Ok(content),
            Walk::Found(p, _) => Err(VfsError::NotAFile(p.into_owned())),
            Walk::Missing(p) => Err(VfsError::NotFound(p.into_owned())),
            Walk::Loop => Err(VfsError::SymlinkLoop(normalize(path))),
        }
    }

    /// Read file contents as text.
    pub fn read_text(&self, path: &str) -> Result<&str, VfsError> {
        self.read(path)?
            .as_text()
            .ok_or_else(|| VfsError::NotAFile(normalize(path)))
    }

    /// Is the path an executable regular file (following symlinks)?
    pub fn is_executable(&self, path: &str) -> bool {
        matches!(
            self.resolved(path),
            Some((
                _,
                Node::File {
                    executable: true,
                    ..
                }
            ))
        )
    }

    /// Immediate children names of a directory.
    pub fn list_dir(&self, path: &str) -> Result<Vec<String>, VfsError> {
        let (dir, node) = self.resolve(path)?;
        if !matches!(node, Node::Dir) {
            return Err(VfsError::NotADirectory(dir));
        }
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        let mut out = Vec::new();
        for p in self.nodes.range(prefix.clone()..) {
            let (path, _) = p;
            if !path.starts_with(&prefix) {
                break;
            }
            let rest = &path[prefix.len()..];
            if !rest.is_empty() && !rest.contains('/') {
                out.push(rest.to_string());
            }
        }
        Ok(out)
    }

    /// All paths in the tree (files, dirs, links), sorted.
    pub fn all_paths(&self) -> impl Iterator<Item = &str> {
        self.nodes.keys().map(String::as_str)
    }

    /// The exact-name index entry: every path whose basename is `name`,
    /// sorted. Link paths are listed as links, not followed.
    pub fn paths_named(&self, name: &str) -> &[String] {
        self.names.get(name).map_or(&[], Vec::as_slice)
    }

    /// `find <root> -name <name>`-style search: every path under `root`
    /// whose basename equals `name`. Follows nothing; reports link paths.
    pub fn find_by_name(&self, root: &str, name: &str) -> Vec<String> {
        let root = normalized(root);
        self.paths_named(name)
            .iter()
            .filter(|p| is_under(p, &root))
            .cloned()
            .collect()
    }

    /// `locate <pattern>`-style search: every path whose basename
    /// *contains* `pattern`.
    pub fn locate(&self, pattern: &str) -> Vec<String> {
        self.nodes
            .keys()
            .filter(|p| basename(p).contains(pattern))
            .cloned()
            .collect()
    }

    /// Total bytes of all regular files under `root`.
    pub fn disk_usage(&self, root: &str) -> usize {
        let root = normalize(root);
        let prefix = if root == "/" {
            "/".to_string()
        } else {
            format!("{root}/")
        };
        self.nodes
            .iter()
            .filter(|(p, _)| p.starts_with(&prefix) || **p == root)
            .map(|(_, n)| match n {
                Node::File { content, .. } => content.len(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_components() {
        assert_eq!(normalize("/a//b/./c/../d"), "/a/b/d");
        assert_eq!(normalize("a/b"), "/a/b");
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize("/.."), "/");
    }

    #[test]
    fn normalized_borrows_only_normal_paths() {
        for path in [
            "/",
            "/a",
            "/usr/lib64/libc.so.6",
            "/.hidden",
            "/a..b",
            "/a/...",
            "/a/.b/c.",
        ] {
            assert!(
                matches!(normalized(path), Cow::Borrowed(p) if p == path),
                "{path}"
            );
        }
        for (path, normal) in [
            ("/a/.", "/a"),
            ("/a/..", "/"),
            ("/a/./b", "/a/b"),
            ("//", "/"),
            ("/a/", "/a"),
            ("/a//b", "/a/b"),
            ("a/b", "/a/b"),
            ("", "/"),
            ("/..", "/"),
        ] {
            assert!(
                matches!(normalized(path), Cow::Owned(p) if p == normal),
                "{path}"
            );
        }
    }

    #[test]
    fn join_handles_absolute_and_relative() {
        assert_eq!(join("/usr/lib", "libm.so"), "/usr/lib/libm.so");
        assert_eq!(join("/usr/lib", "/opt/lib/x"), "/opt/lib/x");
        assert_eq!(join("/usr/lib", "../lib64/libc.so"), "/usr/lib64/libc.so");
    }

    #[test]
    fn mkdir_write_read_round_trip() {
        let mut fs = Vfs::new();
        fs.write_text("/etc/redhat-release", "CentOS release 5.6 (Final)");
        assert_eq!(
            fs.read_text("/etc/redhat-release").unwrap(),
            "CentOS release 5.6 (Final)"
        );
        assert!(fs.exists("/etc"));
        assert!(matches!(fs.lookup("/etc"), Some(Node::Dir)));
    }

    #[test]
    fn symlink_resolution_absolute_and_relative() {
        let mut fs = Vfs::new();
        fs.write_text("/usr/lib64/libmpi.so.0.0.2", "elf");
        fs.symlink("/usr/lib64/libmpi.so.0", "libmpi.so.0.0.2");
        fs.symlink("/opt/mpi/libmpi.so.0", "/usr/lib64/libmpi.so.0");
        assert_eq!(fs.read_text("/usr/lib64/libmpi.so.0").unwrap(), "elf");
        assert_eq!(fs.read_text("/opt/mpi/libmpi.so.0").unwrap(), "elf");
        let (real, _) = fs.resolve("/opt/mpi/libmpi.so.0").unwrap();
        assert_eq!(real, "/usr/lib64/libmpi.so.0.0.2");
    }

    #[test]
    fn symlink_loop_detected() {
        let mut fs = Vfs::new();
        fs.symlink("/a", "/b");
        fs.symlink("/b", "/a");
        assert!(matches!(fs.resolve("/a"), Err(VfsError::SymlinkLoop(_))));
    }

    #[test]
    fn list_dir_returns_immediate_children_only() {
        let mut fs = Vfs::new();
        fs.write_text("/opt/mpi/lib/libmpi.so", "x");
        fs.write_text("/opt/mpi/README", "x");
        fs.write_text("/opt/other", "x");
        let mut kids = fs.list_dir("/opt/mpi").unwrap();
        kids.sort();
        assert_eq!(kids, vec!["README", "lib"]);
        let root_kids = fs.list_dir("/").unwrap();
        assert_eq!(root_kids, vec!["opt"]);
    }

    #[test]
    fn find_by_name_and_locate() {
        let mut fs = Vfs::new();
        fs.write_text("/usr/lib64/libgfortran.so.1", "x");
        fs.write_text("/opt/gcc/lib/libgfortran.so.1", "x");
        fs.write_text("/usr/lib64/libgfortran.so.3", "x");
        let found = fs.find_by_name("/usr", "libgfortran.so.1");
        assert_eq!(found, vec!["/usr/lib64/libgfortran.so.1"]);
        let located = fs.locate("libgfortran");
        assert_eq!(located.len(), 3);
    }

    #[test]
    fn remove_is_recursive() {
        let mut fs = Vfs::new();
        fs.write_text("/opt/mpi/lib/a", "x");
        fs.write_text("/opt/mpi/lib/b", "x");
        fs.remove("/opt/mpi");
        assert!(!fs.exists("/opt/mpi"));
        assert!(!fs.exists("/opt/mpi/lib/a"));
        assert!(fs.exists("/opt"));
    }

    #[test]
    fn executable_bit() {
        let mut fs = Vfs::new();
        fs.write_executable("/usr/bin/mpicc", Arc::new(b"#!wrapper".to_vec()));
        assert!(fs.is_executable("/usr/bin/mpicc"));
        fs.write_text("/usr/bin/readme", "x");
        assert!(!fs.is_executable("/usr/bin/readme"));
        fs.set_executable("/usr/bin/readme").unwrap();
        assert!(fs.is_executable("/usr/bin/readme"));
        assert!(fs.set_executable("/nope").is_err());
    }

    #[test]
    fn disk_usage_sums_file_sizes() {
        let mut fs = Vfs::new();
        fs.write_text("/bundle/a", "12345");
        fs.write_text("/bundle/sub/b", "123");
        fs.write_text("/other/c", "1");
        assert_eq!(fs.disk_usage("/bundle"), 8);
    }
}
