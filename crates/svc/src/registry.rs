//! Binary registry: the service's name → image mapping.
//!
//! A [`PredictRequest`](crate::PredictRequest) carries a `binary_ref`
//! string; the registry resolves it to the staged ELF image, its stable
//! content key (the BDC cache key) and — for extended predictions — the
//! site whose guaranteed execution environment runs the source phase. The
//! source-phase bundle is memoized **per home-site configuration epoch**:
//! however many extended requests arrive, the source phase runs once (once
//! it completes without an injected fault), but a reconfiguration of the
//! home site (epoch bump) orphans the memo so the planner can never rank
//! against a source description gathered in a stale environment.
//!
//! Names bind content: re-registering an existing name with *different*
//! content is rejected ([`RegistryError::ContentConflict`]) so every
//! cached result and ranking derived from the old name stays honest. The
//! sanctioned way to change a name's bytes is [`BinaryRegistry::update`],
//! which bumps the name's **generation**; the service compares the
//! generation it captured at submit time against the current one before
//! memoizing, so an evaluation that raced an update can never publish a
//! stale result.
//!
//! Each name also keeps the binding it held one update ago. An update
//! back to that binding's content and home site re-adopts it, memoized
//! bundle and all, so a rollback costs no source phase; the service keeps
//! the results of both contents for the same reason.
//!
//! A binding is an `Arc` that several registries may hold. A fleet binds
//! each registered or updated image once and hands every node that same
//! `Arc` (`insert_bound`, `update_bound`), so the bundle memo is
//! fleet-wide: the source phase runs once per binding and home-site
//! epoch, not once per node. Sharing it is sound because a fleet applies
//! every configuration change to all its nodes under one lock, so every
//! node holds the same EDC epoch per site, and
//! [`RegisteredBinary::bundle_under`] serves a bundle only for the exact
//! epoch it was gathered under: an evaluation that raced a
//! reconfiguration can cost a recompute, never serve a bundle from
//! another epoch.

use feam_core::bundle::SourceBundle;
use feam_core::cache::{content_key_of, BdcKey};
use feam_sim::faults::FaultPlan;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is already bound to different content. Registering changed
    /// bytes under an existing name would let memoized source bundles and
    /// cached results answer for the wrong binary.
    ContentConflict { name: String },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::ContentConflict { name } => write!(
                f,
                "binary name {name:?} is already bound to different content; \
                 register the changed binary under a new name"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The memoized source phase for one home-site configuration epoch.
struct BundleMemo {
    /// Home-site EDC epoch the bundle was gathered under.
    epoch: u64,
    /// `None` records a failed source phase (e.g. a non-MPI image) so it
    /// is not retried per request within the same epoch; only a failure
    /// under a silent fault plan is recorded.
    bundle: Option<Arc<SourceBundle>>,
}

/// One binary known to the service.
pub struct RegisteredBinary {
    /// The ELF image as staged at sites.
    pub image: Arc<Vec<u8>>,
    /// Full content key of the image (word-at-a-time FNV-style primary
    /// hash + length + independent second hash) — the content-addressed
    /// identity every cache layer keys on.
    pub content_key: BdcKey,
    /// Site whose GEE runs the source phase for extended predictions.
    pub home_site: String,
    /// Index of `home_site` in the binding registry's site list, resolved
    /// when the registry binds this binary (`None`: not a served site).
    pub(crate) home: Option<usize>,
    /// Source-phase output, computed on the first extended request per
    /// home-site configuration epoch.
    bundle: Mutex<Option<BundleMemo>>,
}

impl RegisteredBinary {
    /// Register an image built at (or considered native to) `home_site`.
    /// The key comes from [`content_key_of`], so a buffer registered
    /// before is not hashed again.
    pub fn new(image: Arc<Vec<u8>>, home_site: &str) -> Self {
        RegisteredBinary {
            content_key: content_key_of(&image),
            image,
            home_site: home_site.to_string(),
            home: None,
            bundle: Mutex::new(None),
        }
    }

    /// [`bundle_under`](RegisteredBinary::bundle_under) for a caller whose
    /// fault plan is silent: `compute` runs at most once per epoch.
    pub fn bundle_for_epoch(
        &self,
        epoch: u64,
        compute: impl FnOnce() -> Option<Arc<SourceBundle>>,
    ) -> Option<Arc<SourceBundle>> {
        self.bundle_under(epoch, &FaultPlan::none(), compute)
    }

    /// The memoized source-phase bundle for `epoch`, computed under
    /// `faults` on a miss. A stale-epoch memo (the home site was
    /// reconfigured since the bundle was gathered) is discarded and
    /// recomputed. Only a fault-free outcome is memoized: a bundle whose
    /// source phase met no fault, or a failure under a silent plan (a
    /// failure carries no fault count). Under a silent plan `compute` thus
    /// runs at most once per epoch. Concurrent extended requests for the
    /// same binary serialize here, which is exactly the single-computation
    /// guarantee.
    pub fn bundle_under(
        &self,
        epoch: u64,
        faults: &FaultPlan,
        compute: impl FnOnce() -> Option<Arc<SourceBundle>>,
    ) -> Option<Arc<SourceBundle>> {
        let mut memo = self.bundle.lock().expect("bundle memo");
        if let Some(m) = memo.as_ref() {
            if m.epoch == epoch {
                return m.bundle.clone();
            }
        }
        let bundle = compute();
        let clean = match &bundle {
            Some(b) => b.faults_seen == 0,
            None => faults.is_none(),
        };
        if clean {
            *memo = Some(BundleMemo {
                epoch,
                bundle: bundle.clone(),
            });
        }
        bundle
    }

    /// The epoch of the current memo, for introspection and tests.
    pub fn bundle_epoch(&self) -> Option<u64> {
        self.bundle
            .lock()
            .expect("bundle memo")
            .as_ref()
            .map(|m| m.epoch)
    }
}

/// One registry slot: the binding, its generation (bumped by every
/// [`BinaryRegistry::update`], never by an idempotent re-insert) and the
/// binding it held one update ago.
pub(crate) struct Slot {
    /// The name, shared with every response that names it.
    pub(crate) name: Arc<str>,
    pub(crate) generation: u64,
    pub(crate) binary: Arc<RegisteredBinary>,
    previous: Option<Arc<RegisteredBinary>>,
}

impl Slot {
    /// Does this slot bind `content`, now or one update ago?
    fn holds(&self, content: &BdcKey) -> bool {
        std::iter::once(&self.binary)
            .chain(&self.previous)
            .any(|b| b.content_key == *content)
    }
}

/// Name → binary mapping with per-name generations, over the site list
/// the home sites are resolved against.
#[derive(Default)]
pub struct BinaryRegistry {
    entries: HashMap<String, Slot>,
    sites: Vec<Arc<str>>,
}

impl BinaryRegistry {
    /// An empty registry whose bindings resolve their home site against
    /// `sites` (the serving site list, in index order).
    pub fn over_sites(sites: Vec<Arc<str>>) -> Self {
        BinaryRegistry {
            entries: HashMap::new(),
            sites,
        }
    }

    /// `binary` with its home site resolved, ready to bind.
    pub(crate) fn bind(&self, mut binary: RegisteredBinary) -> Arc<RegisteredBinary> {
        binary.home = self.sites.iter().position(|s| **s == *binary.home_site);
        Arc::new(binary)
    }

    /// Register `name`. Re-registering the same content under the same
    /// name is an idempotent no-op (the existing entry, with its memoized
    /// bundle and generation, is kept); different content under an
    /// existing name is rejected — changed bytes go through
    /// [`update`](BinaryRegistry::update) or take a new name.
    pub fn insert(&mut self, name: &str, binary: RegisteredBinary) -> Result<(), RegistryError> {
        let binding = self.bind(binary);
        self.insert_bound(name, binding)
    }

    /// [`insert`](BinaryRegistry::insert) for a binding already resolved
    /// against this registry's site list, which other registries may hold
    /// too.
    pub(crate) fn insert_bound(
        &mut self,
        name: &str,
        binary: Arc<RegisteredBinary>,
    ) -> Result<(), RegistryError> {
        if let Some(existing) = self.entries.get(name) {
            if existing.binary.content_key != binary.content_key {
                return Err(RegistryError::ContentConflict {
                    name: name.to_string(),
                });
            }
            return Ok(());
        }
        self.entries.insert(
            name.to_string(),
            Slot {
                name: name.into(),
                generation: 0,
                binary,
                previous: None,
            },
        );
        Ok(())
    }

    /// Replace `name`'s content (or create the binding), bumping its
    /// generation. A binding equal in content and home site to the
    /// current one is kept, and one equal to the binding held one update
    /// ago is re-adopted, each with its memoized bundle. Returns the new
    /// generation and the content key that fell out of the name's
    /// (current, previous) pair and that no other name binds either:
    /// results derived from it can never be asked for again.
    pub fn update(&mut self, name: &str, binary: RegisteredBinary) -> (u64, Option<BdcKey>) {
        let binding = self.bind(binary);
        self.update_bound(name, binding)
    }

    /// [`update`](BinaryRegistry::update) for a binding already resolved
    /// against this registry's site list, which other registries may hold
    /// too.
    pub(crate) fn update_bound(
        &mut self,
        name: &str,
        bound: Arc<RegisteredBinary>,
    ) -> (u64, Option<BdcKey>) {
        if !self.entries.contains_key(name) {
            self.insert_bound(name, bound).expect("a fresh name binds");
            return (0, None);
        }
        let slot = self.entries.get_mut(name).expect("bound name");
        let same = |b: &RegisteredBinary| {
            b.content_key == bound.content_key && b.home_site == bound.home_site
        };
        let fallen = if same(&slot.binary) {
            None
        } else if slot.previous.as_deref().is_some_and(same) {
            let back = slot.previous.take().expect("previous binding");
            slot.previous = Some(std::mem::replace(&mut slot.binary, back));
            None
        } else {
            let old = std::mem::replace(&mut slot.binary, bound);
            slot.previous.replace(old)
        };
        slot.generation += 1;
        let generation = slot.generation;
        let purge = fallen
            .map(|b| b.content_key)
            .filter(|k| !self.entries.values().any(|s| s.holds(k)));
        (generation, purge)
    }

    /// Resolve a request's `binary_ref`.
    pub fn get(&self, name: &str) -> Option<&Arc<RegisteredBinary>> {
        self.entries.get(name).map(|s| &s.binary)
    }

    /// `name`'s slot: its binding, generation and shared name.
    pub(crate) fn slot(&self, name: &str) -> Option<&Slot> {
        self.entries.get(name)
    }

    /// The current generation of `name`'s binding.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|s| s.generation)
    }

    /// Number of registered binaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered names in sorted order (deterministic iteration for the
    /// load generator).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }
}

/// A small MPI binary compiled at the first standard site — for examples
/// and doctests.
pub fn demo_binary(seed: u64) -> RegisteredBinary {
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, RANGER};

    let sites = standard_sites(seed);
    let site = &sites[RANGER];
    let ist = site.stacks[1].clone();
    let bin = compile(
        site,
        Some(&ist),
        &ProgramSpec::new("cg", Language::Fortran),
        seed,
    )
    .expect("demo binary compiles");
    RegisteredBinary::new(bin.image, site.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_and_hashes() {
        let mut reg = BinaryRegistry::default();
        assert!(reg.is_empty());
        let b = demo_binary(3);
        let key = b.content_key;
        assert_ne!(key.hash, 0);
        assert_ne!(key.len, 0);
        reg.insert("cg.B.4", b).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("cg.B.4").unwrap().content_key, key);
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.names(), vec!["cg.B.4".to_string()]);
    }

    #[test]
    fn bundle_computed_at_most_once_per_epoch() {
        let b = demo_binary(4);
        let mut calls = 0;
        for _ in 0..3 {
            b.bundle_for_epoch(0, || {
                calls += 1;
                None
            });
        }
        assert_eq!(
            calls, 1,
            "under a silent plan the source phase is memoized, even when it failed"
        );
        assert_eq!(b.bundle_epoch(), Some(0));

        // An epoch bump (home site reconfigured) orphans the memo.
        b.bundle_for_epoch(1, || {
            calls += 1;
            None
        });
        assert_eq!(calls, 2, "stale-epoch memo must be recomputed");
        assert_eq!(b.bundle_epoch(), Some(1));
        b.bundle_for_epoch(1, || {
            calls += 1;
            None
        });
        assert_eq!(calls, 2, "fresh-epoch memo is reused");
    }

    #[test]
    fn faulted_source_phase_is_recomputed_on_the_next_call() {
        use feam_core::phases::{run_source_phase, PhaseConfig};
        use feam_workloads::sites::{standard_sites, RANGER};

        let b = demo_binary(4);
        let sites = standard_sites(4);
        // Transient description-file and module-database faults: retries
        // absorb them, so the source phase succeeds, but the bundle records
        // that it met them.
        let faults = Arc::new(FaultPlan::chaos(1, 0.5));
        let cfg = PhaseConfig {
            faults: faults.clone(),
            ..PhaseConfig::default()
        };
        let mut calls = 0;
        for expected in 1..=2 {
            let bundle = b.bundle_under(0, &faults, || {
                calls += 1;
                run_source_phase(&sites[RANGER], &b.image, &cfg)
                    .ok()
                    .map(Arc::new)
            });
            let faulted = bundle.expect("retries absorb transient faults");
            assert!(faulted.faults_seen > 0, "the plan must fault this phase");
            assert_eq!(calls, expected, "a faulted bundle is never memoized");
        }
        assert_eq!(b.bundle_epoch(), None);

        // A failure under a faulting plan may be the fault's doing: it is
        // recomputed too.
        for expected in 3..=4 {
            assert!(b
                .bundle_under(0, &faults, || {
                    calls += 1;
                    None
                })
                .is_none());
            assert_eq!(calls, expected, "a failure under faults is never memoized");
        }
        assert_eq!(b.bundle_epoch(), None);
    }

    #[test]
    fn an_update_keeps_one_binding_back() {
        let mut reg = BinaryRegistry::over_sites(vec!["ranger".into()]);
        let (a, b, c) = (demo_binary(5), demo_binary(6), demo_binary(7));
        let keys = [a.content_key, b.content_key, c.content_key];
        let images = [a.image.clone(), b.image.clone(), c.image.clone()];
        let bind = |i: usize| RegisteredBinary::new(images[i].clone(), "ranger");
        reg.insert("app", a).unwrap();
        let first = reg.get("app").unwrap().clone();
        assert_eq!(first.home, Some(0), "the home site is resolved on binding");

        assert_eq!(reg.update("app", bind(1)), (1, None));
        assert_eq!(reg.update("app", bind(0)), (2, None), "A→B→A drops nothing");
        assert!(
            Arc::ptr_eq(reg.get("app").unwrap(), &first),
            "the rollback re-adopts the binding"
        );
        assert_eq!(reg.update("app", bind(0)), (3, None), "same binding kept");
        assert!(Arc::ptr_eq(reg.get("app").unwrap(), &first));

        // A third content pushes B out of the pair: nothing else binds it.
        assert_eq!(reg.update("app", bind(2)), (4, Some(keys[1])));
        // A is still bound by another name when it falls out of "app"'s
        // pair, so its results must stay.
        reg.insert("twin", bind(0)).unwrap();
        assert_eq!(reg.update("app", bind(1)), (5, None));
        assert_eq!(reg.get("app").unwrap().content_key, keys[1]);
    }

    #[test]
    fn changed_content_under_an_existing_name_is_rejected() {
        let mut reg = BinaryRegistry::default();
        let a = demo_binary(5);
        let a_image = a.image.clone();
        reg.insert("app", a).unwrap();

        // Same name, same bytes: idempotent.
        reg.insert("app", RegisteredBinary::new(a_image, "ranger"))
            .unwrap();
        assert_eq!(reg.len(), 1);

        // Same name, different bytes: rejected, original entry kept.
        let changed = demo_binary(6);
        let before = reg.get("app").unwrap().content_key;
        assert_eq!(
            reg.insert("app", changed),
            Err(RegistryError::ContentConflict { name: "app".into() })
        );
        assert_eq!(reg.get("app").unwrap().content_key, before);

        // The changed binary registers fine under a new name.
        reg.insert("app-v2", demo_binary(6)).unwrap();
        assert_eq!(reg.len(), 2);
    }
}
