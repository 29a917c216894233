//! Description caches for the serving layer (`feam-svc`).
//!
//! FEAM's value proposition is answering "will this binary run there?"
//! without trial execution; in production that question arrives as a
//! stream of (binary, target-site) queries, and most queries repeat a
//! binary or a site already described. Two memoization layers exploit
//! that:
//!
//! * [`BdcCache`] — a **sharded, content-addressed** cache of binary
//!   descriptions keyed by [`BdcKey`], a fast content hash of the ELF
//!   bytes plus a length and second-hash discriminator (so a primary-hash
//!   collision between two distinct byte strings can never cross-serve a
//!   description — `crates/core/tests/cache_keys.rs` pins this). Identical
//!   images share one description regardless of path or site; recursive
//!   library descriptions gathered by the source phase go through the same
//!   cache ([`crate::bdc::collect_libraries_cached`]).
//! * [`EdcCache`] — environment descriptions keyed by **site name +
//!   configuration epoch**, with an optional TTL on a logical clock. A
//!   site reconfiguration bumps the epoch ([`EdcCache::invalidate`]) and
//!   instantly orphans stale entries; the TTL bounds staleness even
//!   without an explicit invalidation signal.
//!
//! **Poisoning guard:** only successful, non-degraded descriptions are
//! inserted. A computation that observed an injected (or real) fault —
//! `Session::faults_seen` moved, or the description carries `unobserved`
//! holes — is served to its requester but never memoized, so one transient
//! NFS hiccup cannot become every future client's answer. Caching is an
//! optimization, never a semantic change: the Table III sweep produces
//! byte-identical predictions with caches on and off (pinned by
//! `tests/cache_equivalence.rs`).

use crate::bdc::BinaryDescription;
use crate::edc::EnvironmentDescription;
use std::collections::HashMap;
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
    /// Word-at-a-time FNV-style hash of the bytes — the primary
    /// (sharding) hash.
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
/// the *allocation* is a sound memo key for as long as it stays alive. The
/// memo stores a `Weak` alongside the key and only serves a hit when the
/// weak still upgrades to the *same* allocation — a dead entry whose
/// address was reused by a new buffer fails the upgrade and is recomputed,
/// so the key remains a pure function of the bytes.
pub fn content_key_of(bytes: &Arc<Vec<u8>>) -> BdcKey {
    use std::sync::{OnceLock, Weak};
    // Past this many entries, dead weaks are purged before inserting; the
    // table tracks live buffers (corpus + library images), far below this.
    const PURGE_AT: usize = 4096;
    type Memo = Mutex<HashMap<usize, (Weak<Vec<u8>>, BdcKey)>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let ptr = Arc::as_ptr(bytes) as usize;
    if let Some((weak, key)) = memo.lock().expect("content key memo").get(&ptr) {
        if let Some(live) = weak.upgrade() {
            if Arc::ptr_eq(&live, bytes) {
                return *key;
            }
        }
    }
    let key = BdcKey::of(bytes);
    let mut m = memo.lock().expect("content key memo");
    if m.len() >= PURGE_AT {
        m.retain(|_, (weak, _)| weak.strong_count() > 0);
    }
    m.insert(ptr, (Arc::downgrade(bytes), key));
    key
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

#[derive(Default)]
struct LayerCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl LayerCounters {
    fn snapshot(&self) -> CacheLayerStats {
        CacheLayerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Sharded content-addressed cache of binary descriptions.
pub struct BdcCache {
    shards: Vec<Mutex<HashMap<BdcKey, Arc<BinaryDescription>>>>,
    counters: LayerCounters,
}

impl Default for BdcCache {
    fn default() -> Self {
        BdcCache {
            shards: (0..BDC_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            counters: LayerCounters::default(),
        }
    }
}

impl BdcCache {
    fn shard(&self, key: &BdcKey) -> &Mutex<HashMap<BdcKey, Arc<BinaryDescription>>> {
        &self.shards[(key.hash % BDC_SHARDS as u64) as usize]
    }

    /// Look up a description by its full content key; a key agreeing only
    /// on the primary hash (a collision) misses.
    pub fn get(&self, key: &BdcKey) -> Option<Arc<BinaryDescription>> {
        let hit = self.shard(key).lock().expect("bdc shard").get(key).cloned();
        match &hit {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Insert a description under its content key.
    pub fn put(&self, key: BdcKey, desc: Arc<BinaryDescription>) {
        self.shard(&key)
            .lock()
            .expect("bdc shard")
            .insert(key, desc);
    }

    /// Record an insertion refused by the poisoning guard.
    pub fn reject(&self) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently cached (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("bdc shard").len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/reject totals so far.
    pub fn stats(&self) -> CacheLayerStats {
        self.counters.snapshot()
    }
}

struct EdcEntry {
    epoch: u64,
    inserted_at: u64,
    env: Arc<EnvironmentDescription>,
}

/// Environment-description cache keyed by site name + config epoch, with
/// an optional TTL on a logical clock (the service advances the clock once
/// per admitted request, so `ttl` is "requests of staleness tolerated").
pub struct EdcCache {
    /// 0 = entries never expire by age (epoch invalidation still applies).
    ttl: u64,
    clock: AtomicU64,
    entries: Mutex<HashMap<String, EdcEntry>>,
    epochs: Mutex<HashMap<String, u64>>,
    counters: LayerCounters,
}

impl EdcCache {
    /// New cache; `ttl` is in logical clock ticks (0 = no expiry).
    pub fn new(ttl: u64) -> Self {
        EdcCache {
            ttl,
            clock: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
            epochs: Mutex::new(HashMap::new()),
            counters: LayerCounters::default(),
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

    /// Look up the environment description for `site`, honoring epoch and
    /// TTL.
    pub fn get(&self, site: &str) -> Option<Arc<EnvironmentDescription>> {
        let now = self.clock.load(Ordering::Relaxed);
        let epoch = self.epoch(site);
        let entries = self.entries.lock().expect("edc entries");
        let hit = entries.get(site).and_then(|e| {
            if e.epoch != epoch {
                return None; // site reconfigured since this was described
            }
            if self.ttl > 0 && now.saturating_sub(e.inserted_at) > self.ttl {
                return None; // older than the staleness budget
            }
            Some(e.env.clone())
        });
        match &hit {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Insert a description for `site` at the current epoch and clock.
    pub fn put(&self, site: &str, env: Arc<EnvironmentDescription>) {
        let entry = EdcEntry {
            epoch: self.epoch(site),
            inserted_at: self.clock.load(Ordering::Relaxed),
            env,
        };
        self.entries
            .lock()
            .expect("edc entries")
            .insert(site.to_string(), entry);
    }

    /// Record an insertion refused by the poisoning guard.
    pub fn reject(&self) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Is there a live (current-epoch, unexpired) entry for `site`? Does
    /// not touch the hit/miss counters — for tests and introspection.
    pub fn contains(&self, site: &str) -> bool {
        let now = self.clock.load(Ordering::Relaxed);
        let epoch = self.epoch(site);
        self.entries
            .lock()
            .expect("edc entries")
            .get(site)
            .is_some_and(|e| {
                e.epoch == epoch && (self.ttl == 0 || now.saturating_sub(e.inserted_at) <= self.ttl)
            })
    }

    /// Hit/miss/reject totals so far.
    pub fn stats(&self) -> CacheLayerStats {
        self.counters.snapshot()
    }
}

/// Memo of the §III.B native hello-world functional test. The verdict is
/// a function of (site, stack, seed, nprocs) alone — not of the binary
/// under evaluation — so one test per advertised stack serves every
/// evaluation at the site. Entries ride the EDC's configuration epoch
/// (reconfiguring a site orphans its memos), and only fault-free tests are
/// memoized, the same poisoning guard the description caches use.
#[derive(Default)]
pub struct StackTestCache {
    entries: Mutex<HashMap<StackTestKey, (u64, bool)>>,
    counters: LayerCounters,
}

/// (site name, stack ident, probe seed, nprocs).
type StackTestKey = (String, String, u64, u32);

impl StackTestCache {
    /// The memoized `native_ok` for this (site, stack) at `epoch`, if the
    /// test already ran under the same seed and process count.
    pub fn get(&self, site: &str, stack: &str, seed: u64, nprocs: u32, epoch: u64) -> Option<bool> {
        let hit = self
            .entries
            .lock()
            .expect("stack-test entries")
            .get(&(site.to_string(), stack.to_string(), seed, nprocs))
            .and_then(|&(e, ok)| (e == epoch).then_some(ok));
        match &hit {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Memoize a fault-free test verdict at `epoch`.
    pub fn put(&self, site: &str, stack: &str, seed: u64, nprocs: u32, epoch: u64, ok: bool) {
        self.entries.lock().expect("stack-test entries").insert(
            (site.to_string(), stack.to_string(), seed, nprocs),
            (epoch, ok),
        );
    }

    /// Record an insertion refused by the poisoning guard.
    pub fn reject(&self) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Hit/miss/reject totals so far.
    pub fn stats(&self) -> CacheLayerStats {
        self.counters.snapshot()
    }
}

/// The cache bundle threaded through [`crate::phases::PhaseConfig`].
///
/// `PhaseConfig::caches = None` (the default) keeps every phase exactly as
/// uncached — the CLI and the evaluation sweep pay nothing. The service
/// layer installs one shared `PhaseCaches` across all workers.
pub struct PhaseCaches {
    pub bdc: BdcCache,
    pub edc: EdcCache,
    pub stack_tests: StackTestCache,
}

impl std::fmt::Debug for PhaseCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseCaches")
            .field("bdc", &self.bdc.stats())
            .field("edc", &self.edc.stats())
            .finish()
    }
}

impl PhaseCaches {
    /// New cache bundle; `edc_ttl` in logical ticks (0 = no expiry).
    pub fn new(edc_ttl: u64) -> Self {
        PhaseCaches {
            bdc: BdcCache::default(),
            edc: EdcCache::new(edc_ttl),
            stack_tests: StackTestCache::default(),
        }
    }

    /// Shorthands used by the phases.
    pub fn bdc_get(&self, key: &BdcKey) -> Option<Arc<BinaryDescription>> {
        self.bdc.get(key)
    }

    pub fn bdc_put(&self, key: BdcKey, desc: Arc<BinaryDescription>) {
        self.bdc.put(key, desc);
    }

    pub fn edc_get(&self, site: &str) -> Option<Arc<EnvironmentDescription>> {
        self.edc.get(site)
    }

    pub fn edc_put(&self, site: &str, env: Arc<EnvironmentDescription>) {
        self.edc.put(site, env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_desc(site: &str) -> Arc<EnvironmentDescription> {
        Arc::new(EnvironmentDescription {
            isa: "x86_64".into(),
            arch: Some(feam_elf::HostArch::X86_64),
            os: format!("os-of-{site}"),
            c_library: feam_elf::VersionName::parse("GLIBC_2.5"),
            env_mgmt: None,
            available_stacks: vec![],
            loaded_stack: None,
            unobserved: vec![],
        })
    }

    fn bin_desc() -> Arc<BinaryDescription> {
        let mut spec =
            feam_elf::ElfSpec::executable(feam_elf::Machine::X86_64, feam_elf::Class::Elf64);
        spec.needed = vec!["libc.so.6".into()];
        let bytes = spec.build().unwrap();
        Arc::new(BinaryDescription::from_bytes("/tmp/app", &bytes).unwrap())
    }

    #[test]
    fn bdc_cache_round_trips_by_content_key() {
        let c = BdcCache::default();
        let d = bin_desc();
        let key = BdcKey {
            hash: d.content_hash,
            len: d.size as u64,
            alt: 7,
        };
        assert!(c.get(&key).is_none());
        c.put(key, d.clone());
        let got = c.get(&key).unwrap();
        assert_eq!(got.content_hash, d.content_hash);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn bdc_cache_spreads_across_shards() {
        let c = BdcCache::default();
        for h in 0..64u64 {
            c.put(
                BdcKey {
                    hash: h,
                    len: h,
                    alt: h,
                },
                bin_desc(),
            );
        }
        assert_eq!(c.len(), 64);
        let populated = c
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert_eq!(populated, BDC_SHARDS, "sequential hashes fill every shard");
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
        c.put("ranger", env_desc("ranger"));
        assert!(c.get("ranger").is_some());
        let e = c.invalidate("ranger");
        assert_eq!(e, 1);
        assert!(c.get("ranger").is_none(), "stale epoch must not serve");
        // Re-described at the new epoch: serves again.
        c.put("ranger", env_desc("ranger"));
        assert!(c.get("ranger").is_some());
    }

    #[test]
    fn edc_ttl_expires_on_logical_clock() {
        let c = EdcCache::new(5);
        c.put("india", env_desc("india"));
        for _ in 0..5 {
            c.advance_clock();
        }
        assert!(c.get("india").is_some(), "within the staleness budget");
        c.advance_clock();
        assert!(c.get("india").is_none(), "expired after ttl ticks");
        assert!(!c.contains("india"));
    }

    #[test]
    fn edc_zero_ttl_never_expires() {
        let c = EdcCache::new(0);
        c.put("fir", env_desc("fir"));
        for _ in 0..10_000 {
            c.advance_clock();
        }
        assert!(c.get("fir").is_some());
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
