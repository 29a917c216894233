//! Description caches for the serving layer (`feam-svc`).
//!
//! FEAM's value proposition is answering "will this binary run there?"
//! without trial execution; in production that question arrives as a
//! stream of (binary, target-site) queries, and most queries repeat a
//! binary or a site already described. Three memo layers exploit that,
//! each an instance of one type, [`Memo`]:
//!
//! * `bdc` — a **sharded, content-addressed** memo of binary
//!   descriptions keyed by [`BdcKey`], a fast content hash of the ELF
//!   bytes plus a length and second-hash discriminator (so a primary-hash
//!   collision between two distinct byte strings can never cross-serve a
//!   description — `crates/core/tests/cache_keys.rs` pins this). The key
//!   is the content key alone: a description is a function of the bytes,
//!   so identical images share one entry whatever site or path they were
//!   read at; recursive library descriptions gathered by the source phase
//!   go through the same layer ([`crate::bdc::collect_libraries_cached`]).
//! * `edc` ([`EdcCache`]) — environment descriptions keyed by **site
//!   name**, fresh while the site's **configuration epoch** stays put and,
//!   optionally, for a TTL on a logical clock. A site reconfiguration
//!   bumps the epoch ([`EdcCache::invalidate`]) and instantly orphans stale
//!   entries; the TTL bounds staleness even without an explicit
//!   invalidation signal.
//! * `stack_tests` — native hello-world verdicts keyed by site, stack,
//!   probe seed and process count, under the EDC's epoch for the site.
//!
//! **Poisoning guard**, in [`Memo::memoize`] alone: only fault-free,
//! clean results are inserted. A computation that observed an injected (or
//! real) fault — `Session::faults_seen` moved — or whose value the layer
//! calls unclean (an environment description with `unobserved` holes) is
//! served to its requester but never memoized, so one transient NFS hiccup
//! cannot become every future client's answer. Caching is an
//! optimization, never a semantic change: the Table III sweep produces
//! byte-identical predictions with caches on and off (pinned by
//! `tests/cache_equivalence.rs`).

use crate::bdc::BinaryDescription;
use crate::edc::EnvironmentDescription;
use feam_sim::memo::AllocMemo;
use feam_sim::site::Session;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards in the BDC cache. Sharding keeps
/// the service's worker pool from serializing on one mutex; 16 is far
/// beyond the worker counts we run.
pub const BDC_SHARDS: usize = 16;

/// Content identity of one byte string, used as the BDC cache key and as
/// the binary component of every serving-layer key.
///
/// A single 64-bit hash admits collisions: two *distinct* ELF images can
/// share it, and a content-addressed cache keyed on the bare hash would
/// then serve one binary's description for the other. The key therefore
/// carries two independent discriminators — the byte length and a second
/// hash over a different accumulator — and every lookup matches the
/// *whole* key. A forged key sharing only the primary hash misses.
///
/// Both hashes are computed in one word-at-a-time pass: the key is taken
/// on every cached describe call (multi-hundred-KB images, hot serving
/// path), so a per-byte loop would dominate the evaluation itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct BdcKey {
    /// Word-at-a-time FNV-style hash of the bytes — the primary hash.
    pub hash: u64,
    /// Byte length of the image.
    pub len: u64,
    /// Independent second hash (SplitMix64-mixed accumulation with a
    /// different offset basis), so equal-length collisions also miss.
    pub alt: u64,
}

impl BdcKey {
    /// The content key of a byte string.
    ///
    /// Both lanes fold the same 8-byte words in one pass. The primary lane
    /// is the word-at-a-time FNV fold (pinned by the engineered-collision
    /// test). The alt lane used to run a full SplitMix64 finalizer per
    /// word; it now uses a single multiply-rotate per word — the
    /// accumulators stay independent (different basis, different update
    /// rule) and one SplitMix64 mix at the end restores avalanche for the
    /// final value. On multi-MB images this halves the per-word work of
    /// the key, which is taken on every cached describe call.
    pub fn of(bytes: &[u8]) -> Self {
        // FNV offset basis / golden-ratio basis.
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        const ALT_MUL: u64 = 0xA24B_AED4_963E_E407;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut alt: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            hash = (hash ^ w).wrapping_mul(FNV_PRIME);
            alt = (alt ^ w).wrapping_mul(ALT_MUL).rotate_left(29);
        }
        let mut tail: u64 = 0;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= (b as u64) << (8 * i);
        }
        hash = (hash ^ tail).wrapping_mul(FNV_PRIME);
        alt = feam_sim::rng::mix(alt ^ tail.wrapping_add(bytes.len() as u64));
        BdcKey {
            hash,
            len: bytes.len() as u64,
            alt,
        }
    }
}

/// The content key of a shared byte buffer, memoized by allocation.
///
/// The serving layer re-hashes the same multi-MB images on every request:
/// the simulated VFS hands out `Arc`-shared buffers
/// ([`feam_sim::site::Session::read_bytes`] clones the stored `Arc`), so
/// the *allocation* is a sound memo key for as long as it stays alive
/// ([`AllocMemo`] keeps it sound under address reuse), and the key
/// remains a pure function of the bytes.
pub fn content_key_of(bytes: &Arc<Vec<u8>>) -> BdcKey {
    static KEYS: AllocMemo<Vec<u8>, BdcKey> = AllocMemo::new();
    KEYS.get_or_insert_with(bytes, |b| BdcKey::of(b))
}

/// Is caching enabled for this process? `FEAM_CACHE=0` (or `false`/`off`)
/// disables every cache layer — CI runs the suite once this way to pin
/// that caching never changes results.
pub fn caching_enabled_from_env() -> bool {
    std::env::var("FEAM_CACHE").map_or(true, |v| cache_gate_on(&v))
}

/// The `FEAM_CACHE` parse: any value but `0`/`false`/`off`/`no`
/// (surrounding whitespace ignored) leaves caching on.
fn cache_gate_on(value: &str) -> bool {
    !matches!(value.trim(), "0" | "false" | "off" | "no")
}

/// Hit/miss totals for one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheLayerStats {
    pub hits: u64,
    pub misses: u64,
    /// Insertions refused by the poisoning guard (faulted or degraded
    /// computations).
    pub rejected: u64,
}

impl CacheLayerStats {
    /// Hit fraction in [0, 1]; 0 when the layer was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a lookup requires of an entry, and what a new entry is stamped
/// with: an entry serves only at the configuration epoch it was made
/// under and, with a nonzero `ttl`, for at most `ttl` logical clock ticks
/// after `now`. The default (epoch 0, no TTL) never goes stale.
#[derive(Debug, Clone, Copy, Default)]
pub struct Freshness {
    pub epoch: u64,
    pub now: u64,
    /// 0 = entries never expire by age (epoch invalidation still applies).
    pub ttl: u64,
}

impl Freshness {
    fn admits<V>(&self, e: &Entry<V>) -> bool {
        let age = self.now.saturating_sub(e.made.now);
        e.made.epoch == self.epoch && (self.ttl == 0 || age <= self.ttl)
    }
}

struct Entry<V> {
    value: V,
    made: Freshness,
}

/// One lock's worth of a memo layer.
type Shard<K, V> = Mutex<HashMap<K, Entry<V>>>;

/// One memo layer: a (optionally sharded) map from key to value plus the
/// layer's hit/miss/reject counters. [`Memo::memoize`] is the only way in,
/// so every layer follows the same protocol and the same poisoning guard.
///
/// Lookups take the key borrowed (`&str` for a `String` key, a
/// [`StackTestKeyParts`] view for the stack-test tuple), so a hit builds
/// no key; the owned key is made only when a miss inserts.
pub struct Memo<K, V> {
    shards: Box<[Shard<K, V>]>,
    /// Recorder counter names for a hit and a miss, if the layer
    /// publishes them.
    metrics: Option<(&'static str, &'static str)>,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new(shards: usize, metrics: Option<(&'static str, &'static str)>) -> Self {
        Memo {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            metrics,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The shard holding `key`: a hash of the borrowed key, which by
    /// `Borrow`'s contract hashes as the owned key does.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Shard<K, V> {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % n as u64) as usize]
    }

    /// The memo protocol. Serve `key`'s entry if `fresh` admits it;
    /// otherwise `compute` it through `sess` (so injected faults still
    /// apply) and memoize the result stamped with `fresh`, **only** when
    /// no fault fired during the computation (`sess.faults_seen` did not
    /// move) and `clean` accepts the value. A refused result is still
    /// returned to its requester and counted as a rejection; an `Err` is
    /// returned as is and memoizes nothing.
    pub fn memoize<Q, E>(
        &self,
        sess: &mut Session<'_>,
        key: &Q,
        fresh: Freshness,
        compute: impl FnOnce(&mut Session<'_>) -> Result<V, E>,
        clean: impl FnOnce(&V) -> bool,
    ) -> Result<V, E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let shard = self.shard(key);
        let hit = shard
            .lock()
            .expect("memo shard")
            .get(key)
            .filter(|e| fresh.admits(e))
            .map(|e| e.value.clone());
        let (counter, metric) = match &hit {
            Some(_) => (&self.hits, self.metrics.map(|(h, _)| h)),
            None => (&self.misses, self.metrics.map(|(_, m)| m)),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(name) = metric {
            sess.recorder.count(name, 1);
        }
        if let Some(v) = hit {
            return Ok(v);
        }
        let before = sess.faults_seen.get();
        let value = compute(sess)?;
        if sess.faults_seen.get() == before && clean(&value) {
            let entry = Entry {
                value: value.clone(),
                made: fresh,
            };
            shard
                .lock()
                .expect("memo shard")
                .insert(key.to_owned(), entry);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// The entry `fresh` admits under `key`, without touching the
    /// counters — for tests and introspection.
    pub fn peek<Q>(&self, key: &Q, fresh: Freshness) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key)
            .lock()
            .expect("memo shard")
            .get(key)
            .filter(|e| fresh.admits(e))
            .map(|e| e.value.clone())
    }

    /// Entries currently held (across all shards), stale ones included.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard").len())
            .sum()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/reject totals so far.
    pub fn stats(&self) -> CacheLayerStats {
        CacheLayerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// The EDC layer: environment descriptions memoized per site name, plus
/// what only the EDC needs — the per-site configuration epochs, the
/// logical clock and the TTL. The service advances the clock once per
/// admitted request, so `ttl` is "requests of staleness tolerated".
pub struct EdcCache {
    memo: Memo<String, Arc<EnvironmentDescription>>,
    /// 0 = entries never expire by age (epoch invalidation still applies).
    ttl: u64,
    clock: AtomicU64,
    epochs: Mutex<HashMap<String, u64>>,
}

impl EdcCache {
    /// New cache; `ttl` is in logical clock ticks (0 = no expiry).
    pub fn new(ttl: u64) -> Self {
        EdcCache {
            memo: Memo::new(1, Some(("cache.edc.hit", "cache.edc.miss"))),
            ttl,
            clock: AtomicU64::new(0),
            epochs: Mutex::new(HashMap::new()),
        }
    }

    /// Advance the logical clock by one tick and return the new value.
    pub fn advance_clock(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The current configuration epoch of `site` (0 until invalidated).
    pub fn epoch(&self, site: &str) -> u64 {
        *self
            .epochs
            .lock()
            .expect("edc epochs")
            .get(site)
            .unwrap_or(&0)
    }

    /// Bump `site`'s configuration epoch, orphaning any cached entry (the
    /// "site was reconfigured" signal). Returns the new epoch.
    pub fn invalidate(&self, site: &str) -> u64 {
        let mut epochs = self.epochs.lock().expect("edc epochs");
        let e = epochs.entry(site.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// `site`'s current epoch, the clock and the TTL.
    fn freshness(&self, site: &str) -> Freshness {
        Freshness {
            epoch: self.epoch(site),
            now: self.clock.load(Ordering::Relaxed),
            ttl: self.ttl,
        }
    }

    /// Describe the session's site through the memo: a discovery that
    /// saw a fault or left `unobserved` holes is returned but never
    /// memoized. The entry is stamped with the epoch read before
    /// `discover` ran, so a reconfiguration racing it orphans the result.
    /// A hit hands out the shared entry and allocates nothing.
    pub fn memoize(
        &self,
        sess: &mut Session<'_>,
        discover: impl FnOnce(&mut Session<'_>) -> EnvironmentDescription,
    ) -> Arc<EnvironmentDescription> {
        let site = sess.site.name();
        let fresh = self.freshness(site);
        let discover = |s: &mut Session<'_>| Ok::<_, Infallible>(Arc::new(discover(s)));
        let clean = |env: &Arc<EnvironmentDescription>| env.unobserved.is_empty();
        let Ok(env) = self.memo.memoize(sess, site, fresh, discover, clean);
        env
    }

    /// Is there a live (current-epoch, unexpired) entry for `site`? Does
    /// not touch the hit/miss counters — for tests and introspection.
    pub fn contains(&self, site: &str) -> bool {
        self.memo.peek(site, self.freshness(site)).is_some()
    }

    /// Hit/miss/reject totals so far.
    pub fn stats(&self) -> CacheLayerStats {
        self.memo.stats()
    }
}

/// The cache bundle threaded through [`crate::phases::PhaseConfig`].
///
/// `PhaseConfig::caches = None` (the default) keeps every phase exactly as
/// uncached — the CLI and the evaluation sweep pay nothing. The service
/// layer installs one shared `PhaseCaches` across all workers.
pub struct PhaseCaches {
    /// Binary descriptions by content key alone, in [`BDC_SHARDS`]
    /// shards.
    pub bdc: Memo<BdcKey, Arc<BinaryDescription>>,
    /// Environment descriptions by site, under epoch and TTL.
    pub edc: EdcCache,
    /// Native hello-world verdicts by (site, stack ident, probe seed,
    /// nprocs) — never by binary — under the EDC's epoch. Publishes no
    /// recorder counters, so its hit path never touches the registry.
    pub stack_tests: Memo<StackTestKey, bool>,
}

impl std::fmt::Debug for PhaseCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseCaches")
            .field("bdc", &self.bdc.stats())
            .field("edc", &self.edc.stats())
            .field("stack_tests", &self.stack_tests.stats())
            .finish()
    }
}

impl PhaseCaches {
    /// New cache bundle; `edc_ttl` in logical ticks (0 = no expiry).
    pub fn new(edc_ttl: u64) -> Self {
        PhaseCaches {
            bdc: Memo::new(BDC_SHARDS, Some(("cache.bdc.hit", "cache.bdc.miss"))),
            edc: EdcCache::new(edc_ttl),
            stack_tests: Memo::new(1, None),
        }
    }
}

/// The stack-test layer's key: (site, stack ident, probe seed, nprocs).
pub type StackTestKey = (String, String, u64, u32);

/// A [`StackTestKey`] as borrowed parts. The layer is looked up with
/// `&(site, ident, seed, nprocs) as &dyn StackTestKeyParts` over `&str`s,
/// so a hit copies neither string.
pub trait StackTestKeyParts {
    fn parts(&self) -> (&str, &str, u64, u32);
}

impl StackTestKeyParts for StackTestKey {
    fn parts(&self) -> (&str, &str, u64, u32) {
        (&self.0, &self.1, self.2, self.3)
    }
}

impl StackTestKeyParts for (&str, &str, u64, u32) {
    fn parts(&self) -> (&str, &str, u64, u32) {
        *self
    }
}

impl<'a> Borrow<dyn StackTestKeyParts + 'a> for StackTestKey {
    fn borrow(&self) -> &(dyn StackTestKeyParts + 'a) {
        self
    }
}

/// Hashes as the owned tuple does: a `String` field hashes as its `str`.
impl Hash for dyn StackTestKeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state)
    }
}

impl PartialEq for dyn StackTestKeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn StackTestKeyParts + '_ {}

impl ToOwned for dyn StackTestKeyParts + '_ {
    type Owned = StackTestKey;

    fn to_owned(&self) -> StackTestKey {
        let (site, ident, seed, nprocs) = self.parts();
        (site.to_owned(), ident.to_owned(), seed, nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feam_sim::site::{OsInfo, Site, SiteConfig};

    fn bare_site(name: &str) -> Site {
        let os = OsInfo::new("CentOS", "5.6", "2.6.18");
        Site::build(SiteConfig::new(
            name,
            feam_elf::HostArch::X86_64,
            os,
            "2.5",
            1,
        ))
    }

    /// A clean environment description of `site`, or one with a hole.
    fn env_desc(site: &str, unobserved: &[&str]) -> EnvironmentDescription {
        EnvironmentDescription {
            isa: "x86_64".into(),
            arch: Some(feam_elf::HostArch::X86_64),
            os: format!("os-of-{site}"),
            c_library: feam_elf::VersionName::parse("GLIBC_2.5"),
            env_mgmt: None,
            available_stacks: vec![],
            loaded_stack: None,
            unobserved: unobserved.iter().map(|u| u.to_string()).collect(),
        }
    }

    /// Discover `site` through the EDC memo; true when the memo served it.
    fn edc_serves(c: &EdcCache, site: &Site) -> bool {
        let mut served = true;
        c.memoize(&mut Session::new(site), |_| {
            served = false;
            env_desc(site.name(), &[])
        });
        served
    }

    /// Count the `compute` calls `memoize` makes for these `keys`.
    fn computed(c: &Memo<BdcKey, Arc<BinaryDescription>>, keys: &[BdcKey]) -> usize {
        let site = bare_site("fir");
        let mut sess = Session::new(&site);
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let bytes = spec.build().unwrap();
        let mut n = 0;
        for &key in keys {
            let describe = |_: &mut Session<'_>| {
                n += 1;
                BinaryDescription::from_bytes("/tmp/app", &bytes).map(Arc::new)
            };
            c.memoize(&mut sess, &key, Freshness::default(), describe, |_| true)
                .unwrap();
        }
        n
    }

    #[test]
    fn bdc_cache_round_trips_by_content_key() {
        let c = PhaseCaches::new(0).bdc;
        let key = BdcKey::of(b"an image");
        assert_eq!(computed(&c, &[key, key]), 1, "the second lookup hits");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.rejected), (1, 1, 0));
    }

    #[test]
    fn bdc_cache_spreads_across_shards() {
        let c = PhaseCaches::new(0).bdc;
        let keys: Vec<BdcKey> = (0..64u64)
            .map(|h| BdcKey {
                hash: h,
                len: h,
                alt: h,
            })
            .collect();
        assert_eq!(computed(&c, &keys), 64);
        assert_eq!(c.len(), 64);
        let populated = c
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert_eq!(populated, BDC_SHARDS, "sequential hashes fill every shard");
    }

    #[test]
    fn unclean_results_are_served_but_not_memoized() {
        let c = EdcCache::new(0);
        let site = bare_site("fir");
        let holey = c.memoize(&mut Session::new(&site), |_| env_desc("fir", &["os"]));
        assert_eq!(holey.unobserved, ["os"], "served to its requester");
        assert!(!c.contains("fir"));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn bdc_key_discriminates_beyond_the_primary_hash() {
        let a = BdcKey::of(b"one byte string");
        let b = BdcKey::of(b"two byte string");
        assert_ne!(a, b);
        // Same bytes, same key — the identity is pure in the content.
        assert_eq!(a, BdcKey::of(b"one byte string"));
        // A forged key sharing only the primary hash is a different key.
        let forged = BdcKey { hash: a.hash, ..b };
        assert_ne!(a, forged);
    }

    #[test]
    fn edc_epoch_invalidation_orphans_entries() {
        let c = EdcCache::new(0);
        let ranger = bare_site("ranger");
        assert!(!edc_serves(&c, &ranger), "cold miss describes");
        assert!(edc_serves(&c, &ranger));
        assert_eq!(c.invalidate("ranger"), 1);
        assert!(!c.contains("ranger"), "stale epoch must not serve");
        // Re-described at the new epoch: serves again.
        assert!(!edc_serves(&c, &ranger));
        assert!(edc_serves(&c, &ranger));
    }

    #[test]
    fn edc_ttl_expires_on_logical_clock() {
        let c = EdcCache::new(5);
        let india = bare_site("india");
        edc_serves(&c, &india);
        for _ in 0..5 {
            c.advance_clock();
        }
        assert!(edc_serves(&c, &india), "within the staleness budget");
        c.advance_clock();
        assert!(!edc_serves(&c, &india), "expired after ttl ticks");
    }

    #[test]
    fn edc_zero_ttl_never_expires() {
        let c = EdcCache::new(0);
        let fir = bare_site("fir");
        edc_serves(&c, &fir);
        for _ in 0..10_000 {
            c.advance_clock();
        }
        assert!(edc_serves(&c, &fir));
    }

    #[test]
    fn content_key_memo_matches_direct_key_and_survives_reuse() {
        let a: Arc<Vec<u8>> = Arc::new(b"some image bytes, long enough for words".to_vec());
        let k1 = content_key_of(&a);
        assert_eq!(k1, BdcKey::of(&a), "memoized key equals the direct key");
        assert_eq!(content_key_of(&a), k1, "second call serves the memo");
        drop(a);
        // Allocation reuse after the buffer dies must recompute, never
        // serve a stale key for a different byte string.
        for i in 0..64u8 {
            let b: Arc<Vec<u8>> = Arc::new(vec![i; 64]);
            assert_eq!(content_key_of(&b), BdcKey::of(&b));
        }
    }

    #[test]
    fn env_gate_parses_common_spellings() {
        // Only exercises the parser, not the process environment.
        for off in ["0", "false", "off", "no", " 0", "off\n", "\tno "] {
            assert!(!cache_gate_on(off), "{off:?} turns caching off");
        }
        for on in ["1", "true", "on", "yes", "", " 1 "] {
            assert!(cache_gate_on(on), "{on:?} leaves caching on");
        }
    }
}
