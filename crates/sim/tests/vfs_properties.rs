//! Property-style tests of the virtual filesystem: random write / symlink /
//! `mkdir -p` / remove sequences, with the exact-name index and the
//! allocation-free path handling checked against brute force after every
//! step. Seeded and reproducible, like the loader properties.

use feam_sim::rng::mix;
use feam_sim::vfs::{basename, normalize, normalized, Content, Vfs};

/// Path components the generator draws from. Few and overlapping, so
/// names repeat across directories and links land on real nodes.
const COMPONENTS: &[&str] = &["a", "b", "lib", "libm.so.6", "libm.so", "x"];

/// Tiny deterministic generator: a counter fed through SplitMix64's mixer.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(mix(seed ^ 0x7666_735f_7072_6f70)) // "vfs_prop"
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.range(0, items.len())]
    }

    /// A normal absolute path of depth 1..=4.
    fn path(&mut self) -> String {
        let depth = self.range(1, 5);
        (0..depth)
            .map(|_| format!("/{}", self.pick(COMPONENTS)))
            .collect()
    }

    /// A symlink target: absolute, or relative with an optional `..`.
    fn target(&mut self) -> String {
        match self.range(0, 3) {
            0 => self.path(),
            1 => self.pick(COMPONENTS).to_string(),
            _ => format!("../{}", self.pick(COMPONENTS)),
        }
    }

    /// Another spelling of the normal path `p`: doubled slashes, `/./`,
    /// a `name/..` detour, a trailing slash, or no leading slash.
    fn spelling(&mut self, p: &str) -> String {
        let comps: Vec<&str> = p.split('/').filter(|c| !c.is_empty()).collect();
        let mut out = String::new();
        for c in &comps {
            match self.range(0, 5) {
                0 => out.push_str("//"),
                1 => out.push_str("/./"),
                2 => {
                    out.push('/');
                    out.push_str(self.pick(COMPONENTS));
                    out.push_str("/../");
                }
                _ => out.push('/'),
            }
            out.push_str(c);
        }
        if out.is_empty() {
            out.push('/');
        }
        if self.range(0, 4) == 0 {
            out.push('/');
        }
        if self.range(0, 4) == 0 {
            out = out.trim_start_matches('/').to_string();
        }
        out
    }
}

/// Every path with basename `name` under `root`, by a scan of the tree.
fn brute_find(fs: &Vfs, root: &str, name: &str) -> Vec<String> {
    let prefix = if root == "/" {
        "/".to_string()
    } else {
        format!("{root}/")
    };
    fs.all_paths()
        .filter(|p| (p.starts_with(&prefix) || *p == root) && basename(p) == name)
        .map(str::to_string)
        .collect()
}

fn step(g: &mut Gen, fs: &mut Vfs) {
    let p = g.path();
    match g.range(0, 10) {
        0..=3 => fs.write(&p, Content::Text(format!("{}", g.next_u64()))),
        4..=5 => {
            let t = g.target();
            fs.symlink(&p, &t);
        }
        6..=7 => fs.mkdir_p(&p),
        _ => {
            // Remove something that exists most of the time.
            let existing: Vec<String> = fs.all_paths().map(str::to_string).collect();
            if !existing.is_empty() {
                fs.remove(&existing[g.range(0, existing.len())]);
            }
        }
    }
}

fn check_index(fs: &Vfs, case: u64, at: usize) {
    let mut names: Vec<&str> = COMPONENTS.to_vec();
    names.extend(["", "absent.so"]);
    let mut roots: Vec<String> = vec!["/".into(), "/a".into(), "/lib".into(), "/a/b".into()];
    roots.extend(
        fs.all_paths()
            .filter(|p| p.len() > 1)
            .take(3)
            .map(str::to_string),
    );
    for name in &names {
        let all = brute_find(fs, "/", name);
        assert_eq!(
            fs.paths_named(name),
            all.as_slice(),
            "case {case} step {at}: index of {name:?}"
        );
        for root in &roots {
            assert_eq!(
                fs.find_by_name(root, name),
                brute_find(fs, root, name),
                "case {case} step {at}: find {root} -name {name:?}"
            );
        }
    }
}

fn check_spellings(g: &mut Gen, fs: &Vfs, case: u64, at: usize) {
    let mut probes: Vec<String> = fs.all_paths().map(str::to_string).collect();
    probes.extend((0..8).map(|_| g.path()));
    for p in probes {
        let s = g.spelling(&p);
        assert_eq!(
            normalized(&s),
            normalize(&s),
            "case {case} step {at}: {s:?}"
        );
        assert_eq!(normalize(&s), p, "case {case} step {at}: {s:?} spells {p}");
        assert!(
            matches!(normalized(&p), std::borrow::Cow::Borrowed(_)),
            "{p} is normal"
        );
        assert_eq!(
            fs.exists(&s),
            fs.exists(&p),
            "case {case} step {at}: exists {s:?}"
        );
        assert_eq!(
            fs.lookup(&s).map(|n| n as *const _),
            fs.lookup(&p).map(|n| n as *const _),
            "case {case} step {at}: lookup {s:?}"
        );
        match (fs.resolve(&s), fs.resolve(&p)) {
            (Ok((ra, na)), Ok((rb, nb))) => {
                assert_eq!(ra, rb, "case {case} step {at}: resolve {s:?}");
                assert!(std::ptr::eq(na, nb), "case {case} step {at}: resolve {s:?}");
                let (rc, nc) = fs.resolved(&s).expect("resolved agrees with resolve");
                assert_eq!(rc, ra);
                assert!(std::ptr::eq(nc, na));
            }
            (a, b) => {
                assert_eq!(a.err(), b.err(), "case {case} step {at}: resolve {s:?}");
                assert!(fs.resolved(&s).is_none());
            }
        }
    }
}

/// The name index and `find_by_name` equal a scan of `all_paths()` after
/// every mutation, and every spelling of a path behaves like its normal
/// form.
#[test]
fn index_and_spellings_track_random_mutations() {
    for case in 0..64u64 {
        let mut g = Gen::new(case);
        let mut fs = Vfs::new();
        for at in 0..40 {
            step(&mut g, &mut fs);
            check_index(&fs, case, at);
            check_spellings(&mut g, &fs, case, at);
        }
    }
}

/// Removing a directory drops every path below it from the index, and
/// leaves siblings that share its name as a prefix (`/a` vs `/a.b`).
#[test]
fn remove_keeps_prefix_siblings_indexed() {
    let mut fs = Vfs::new();
    fs.write_text("/a/lib/libm.so.6", "x");
    fs.write_text("/a.b/libm.so.6", "y");
    fs.write_text("/a-c/libm.so.6", "z");
    fs.symlink("/a/libm.so.6", "lib/libm.so.6");
    fs.remove("/a");
    assert_eq!(
        fs.paths_named("libm.so.6"),
        ["/a-c/libm.so.6", "/a.b/libm.so.6"]
    );
    assert!(fs.paths_named("lib").is_empty());
    assert!(fs.paths_named("a").is_empty());
    assert_eq!(fs.paths_named("a.b"), ["/a.b"]);
}
