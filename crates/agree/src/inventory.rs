//! The site library inventory both checkers judge against.
//!
//! An inventory is the checker-side model of "what is installed here":
//! every ELF in the site's loader-default directories, every installed
//! MPI stack's `lib/` and every compiler runtime directory, parsed with
//! `feam-elf`. It is built through a [`Session`] so injected VFS faults
//! apply — a fault during collection marks the inventory degraded, and a
//! degraded inventory degrades the member verdict to `unknown` rather
//! than silently judging against a partial world.

use feam_elf::{Class, LazyElf, Machine};
use feam_sim::faults::FaultPlan;
use feam_sim::site::{Session, Site};
use std::sync::Arc;

/// One installed library as the checkers see it.
#[derive(Debug, Clone)]
pub struct LibEntry {
    /// File name under its directory (the name `DT_NEEDED` matches).
    pub name: String,
    /// `DT_SONAME`, when the object carries one.
    pub soname: Option<String>,
    pub class: Class,
    pub machine: Machine,
    /// `(symbol, version)` of every exported dynamic symbol.
    pub exports: Vec<(String, Option<String>)>,
    /// Version definition names (`.gnu.version_d`).
    pub version_defs: Vec<String>,
    /// The library's own `DT_NEEDED`.
    pub needed: Vec<String>,
}

impl LibEntry {
    /// Does this entry provide `soname` (by file name or `DT_SONAME`)?
    pub fn provides(&self, soname: &str) -> bool {
        self.name == soname || self.soname.as_deref() == Some(soname)
    }
}

/// The parsed library inventory of one site.
#[derive(Debug, Clone, Default)]
pub struct SiteInventory {
    /// Directories scanned, in scan order.
    pub dirs: Vec<String>,
    /// Entries in directory order, then name order within a directory.
    pub entries: Vec<LibEntry>,
    /// True when an injected fault (or unreadable file) hid part of the
    /// inventory — verdicts over a degraded inventory are `unknown`.
    pub degraded: bool,
}

/// The directories a checker scans at `site`: loader defaults, every
/// installed stack's `lib/`, every compiler runtime directory — deduped
/// in that order. Deliberately *all* stacks at once: the checkers model
/// "installed at the site", not "visible under one loaded module".
pub fn inventory_dirs(site: &Site) -> Vec<String> {
    let mut dirs: Vec<String> = site
        .default_lib_dirs()
        .iter()
        .map(|d| d.to_string())
        .collect();
    for ist in &site.stacks {
        dirs.push(ist.lib_dir());
    }
    for ic in &site.compilers {
        dirs.push(ic.lib_dir.clone());
    }
    let mut seen = std::collections::HashSet::new();
    dirs.retain(|d| seen.insert(d.clone()));
    dirs
}

impl SiteInventory {
    /// Scan `site`'s library directories under `faults`. Every file read
    /// goes through a [`Session`], so chaos plans perturb collection the
    /// same way they perturb the FEAM pipeline's reads.
    pub fn collect(site: &Site, faults: &Arc<FaultPlan>) -> Self {
        let sess = Session::with_faults(site, faults.clone());
        let mut inv = SiteInventory {
            dirs: inventory_dirs(site),
            ..SiteInventory::default()
        };
        for dir in inv.dirs.clone() {
            let Ok(names) = site.vfs.list_dir(&dir) else {
                continue;
            };
            for name in names {
                let path = format!("{dir}/{name}");
                // Directory listings expose names; only regular files
                // (through symlinks) are candidate libraries.
                let before = sess.faults_seen.get();
                let Some(bytes) = sess.read_bytes(&path) else {
                    if sess.faults_seen.get() != before {
                        // The file exists but an injected fault hid it:
                        // the inventory is incomplete and must say so.
                        inv.degraded = true;
                    }
                    continue;
                };
                if bytes.len() < 4 || bytes[..4] != [0x7f, b'E', b'L', b'F'] {
                    continue;
                }
                let Ok(f) = LazyElf::parse(&bytes) else {
                    continue;
                };
                inv.entries.push(LibEntry {
                    name,
                    soname: f.soname().map(str::to_string),
                    class: f.class(),
                    machine: f.machine(),
                    exports: f
                        .dynamic_symbols()
                        .iter()
                        .filter(|s| !s.undefined && !s.name.is_empty())
                        .map(|s| (s.name.to_string(), s.version.map(str::to_string)))
                        .collect(),
                    version_defs: f
                        .version_defs()
                        .iter()
                        .map(|d| d.name.to_string())
                        .collect(),
                    needed: f.needed().iter().map(|n| n.to_string()).collect(),
                });
            }
        }
        inv
    }

    /// Entries executable on the binary's `(machine, class)`.
    pub fn candidates(&self, machine: Machine, class: Class) -> Vec<&LibEntry> {
        self.entries
            .iter()
            .filter(|e| e.machine == machine && e.class == class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_workloads::sites::standard_sites;

    #[test]
    fn inventory_covers_defaults_stacks_and_compilers() {
        let sites = standard_sites(42);
        let site = &sites[0];
        let inv = SiteInventory::collect(site, &Arc::new(FaultPlan::none()));
        assert!(!inv.degraded, "fault-free collection is complete");
        assert!(inv.dirs.len() >= site.stacks.len(), "{:?}", inv.dirs);
        // The C library is in the loader defaults at every site.
        assert!(inv.entries.iter().any(|e| e.provides("libc.so.6")));
        // Every functional stack's MPI runtime is visible.
        assert!(inv
            .entries
            .iter()
            .any(|e| e.name.starts_with("libmpi") || e.name.starts_with("libmpich")));
        // Dirs are deduped.
        let mut d = inv.dirs.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), inv.dirs.len());
    }

    #[test]
    fn collection_is_deterministic() {
        let sites = standard_sites(7);
        let plan = Arc::new(FaultPlan::none());
        for site in &sites {
            let a = SiteInventory::collect(site, &plan);
            let b = SiteInventory::collect(site, &plan);
            assert_eq!(a.entries.len(), b.entries.len());
            for (x, y) in a.entries.iter().zip(&b.entries) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.exports.len(), y.exports.len());
            }
        }
    }
}
