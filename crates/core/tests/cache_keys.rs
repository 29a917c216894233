//! Collision-safety properties of the BDC cache key.
//!
//! The cache is content-addressed by [`BdcKey`] = (primary hash, length,
//! second hash). A key carrying only the primary hash would let two
//! distinct images alias one description; these tests *engineer* a genuine
//! primary-hash collision between two valid, distinct ELF images and pin
//! that the full key still discriminates — plus the poisoning-guard
//! invariant that faulted or degraded computations are never memoized, in
//! any of the three memo layers, and that a warm read shares what the
//! memos store (descriptions, `ldd` listings) instead of copying it.

use feam_core::bdc::BinaryDescription;
use feam_core::cache::{BdcKey, Freshness, PhaseCaches};
use feam_core::phases::{run_source_phase, run_target_phase, PhaseConfig};
use feam_elf::{Class, ElfFile, ElfSpec, HostArch, ImportSpec, Machine};
use feam_sim::site::{OsInfo, Session, Site, SiteConfig};
use std::sync::Arc;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Multiplicative inverse of the FNV prime mod 2^64 (Newton iteration —
/// the prime is odd, so the inverse exists).
fn fnv_prime_inv() -> u64 {
    let mut x: u64 = 1;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(FNV_PRIME.wrapping_mul(x)));
    }
    assert_eq!(FNV_PRIME.wrapping_mul(x), 1);
    x
}

fn words_of(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// The word-at-a-time FNV fold [`BdcKey::of`] uses for its primary hash
/// (whole words only — both images below share length and trailing bytes,
/// so the tail step cancels).
fn word_fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(FNV_BASIS, |h, &w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// Construct `b`: a copy of `a` that differs in the 8-byte words at
/// aligned offsets `j` and `k` (j < k) yet folds to the *same* primary
/// hash. Word `j` is perturbed arbitrarily; word `k` is solved so the FNV
/// state re-converges: each fold step `h' = (h ^ w) * P` is invertible,
/// so walk the target state backwards through the suffix and meet it.
fn engineer_collision(a: &[u8], j: usize, k: usize) -> Vec<u8> {
    assert!(j.is_multiple_of(8) && k.is_multiple_of(8) && j < k && k + 8 <= a.len());
    let p_inv = fnv_prime_inv();
    let words = words_of(a);
    let (wj, wk) = (j / 8, k / 8);
    let target = word_fnv(&words);

    let mut b_words = words.clone();
    b_words[wj] ^= 0xDEAD_BEEF_DEAD_BEEF;

    // State after the prefix [0, wk) of the mutated stream.
    let state_before_k = word_fnv(&b_words[..wk]);
    // Walk the final target backwards through the unchanged suffix
    // (wk, end) to find the state required right after word wk.
    let mut need_after_k = target;
    for &w in words[wk + 1..].iter().rev() {
        need_after_k = need_after_k.wrapping_mul(p_inv) ^ w;
    }
    // Solve (state_before_k ^ w) * P = need_after_k for w.
    b_words[wk] = state_before_k ^ need_after_k.wrapping_mul(p_inv);

    let mut b = Vec::with_capacity(a.len());
    for w in &b_words {
        b.extend_from_slice(&w.to_le_bytes());
    }
    b.extend_from_slice(&a[words.len() * 8..]);
    assert_eq!(b.len(), a.len());
    b
}

/// A valid dynamic executable with a .text payload large enough to hide
/// two engineered words without disturbing any parsed structure.
fn base_image() -> Vec<u8> {
    let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    spec.needed = vec!["libc.so.6".into()];
    spec.imports = vec![ImportSpec::versioned("fopen64", "libc.so.6", "GLIBC_2.3.4")];
    spec.text_size = 512;
    spec.build().expect("spec builds")
}

/// A site with nothing installed: a session to run describes through.
fn bare_site() -> Site {
    let os = OsInfo::new("CentOS", "5.6", "2.6.18");
    Site::build(SiteConfig::new("bare", HostArch::X86_64, os, "2.5", 1))
}

/// Describe `bytes` through the BDC memo under `key`.
fn through_bdc(
    caches: &PhaseCaches,
    key: BdcKey,
    path: &str,
    bytes: &[u8],
) -> Arc<BinaryDescription> {
    let site = bare_site();
    let describe = |_: &mut Session<'_>| BinaryDescription::from_bytes(path, bytes).map(Arc::new);
    let fresh = Freshness::default();
    let d = caches
        .bdc
        .memoize(&mut Session::new(&site), &key, fresh, describe, |_| true);
    d.expect("describes")
}

/// Aligned file offsets of two words inside the image's .text section.
fn text_word_offsets(bytes: &[u8]) -> (usize, usize) {
    let f = ElfFile::parse(bytes).expect("base image parses");
    let (_, text) = f
        .sections()
        .iter()
        .find(|(n, _)| n == ".text")
        .expect(".text present")
        .clone();
    let start = (text.offset as usize).div_ceil(8) * 8;
    let end = (text.offset + text.size) as usize;
    assert!(
        start + 64 <= end,
        ".text large enough for two aligned words"
    );
    (start, start + 32)
}

#[test]
fn engineered_fnv_collision_does_not_alias_cache_entries() {
    let a = base_image();
    let (j, k) = text_word_offsets(&a);
    let b = engineer_collision(&a, j, k);

    assert_ne!(a, b, "the images really are distinct byte strings");
    // Both remain valid ELF images with identical parsed structure.
    assert!(ElfFile::parse(&b).is_ok(), "mutated .text stays parseable");

    let ka = BdcKey::of(&a);
    let kb = BdcKey::of(&b);
    assert_eq!(ka.hash, kb.hash, "collision engineering produced the hash");
    assert_eq!(ka.len, kb.len, "same length — bare (hash, len) would alias");
    assert_ne!(
        ka, kb,
        "the second-hash discriminator must separate colliding images"
    );

    // The cache must treat them as different binaries.
    let caches = PhaseCaches::new(0);
    let da = through_bdc(&caches, ka, "/a", &a);
    let db = through_bdc(&caches, kb, "/b", &b);
    assert_eq!(
        caches.bdc.stats().misses,
        2,
        "a colliding distinct image must miss, not cross-serve"
    );
    assert!(
        Arc::ptr_eq(&through_bdc(&caches, ka, "/a", &a), &da),
        "image A round-trips its own description"
    );
    assert!(
        Arc::ptr_eq(&through_bdc(&caches, kb, "/b", &b), &db),
        "image B round-trips its own description"
    );
}

#[test]
fn forged_keys_sharing_partial_identity_miss() {
    let bytes = base_image();
    let key = BdcKey::of(&bytes);
    let caches = PhaseCaches::new(0);
    through_bdc(&caches, key, "/x", &bytes);

    let fresh = Freshness::default();
    for forged in [
        BdcKey {
            alt: key.alt ^ 1,
            ..key
        },
        BdcKey {
            len: key.len + 1,
            ..key
        },
        BdcKey {
            hash: key.hash ^ 1,
            ..key
        },
    ] {
        assert!(
            caches.bdc.peek(&forged, fresh).is_none(),
            "partial key agreement must never serve: {forged:?}"
        );
    }
    assert!(
        caches.bdc.peek(&key, fresh).is_some(),
        "the true key still serves"
    );
}

#[test]
fn distinct_images_get_distinct_keys_and_round_trip() {
    // Randomized-ish sweep: vary every spec axis that changes the bytes
    // and require pairwise-distinct keys plus identity round-trips.
    let mut images = Vec::new();
    for i in 0..24usize {
        let mut spec = ElfSpec::executable(Machine::X86_64, Class::Elf64);
        spec.needed = vec![format!("lib{}.so.{}", (b'a' + (i % 26) as u8) as char, i)];
        if i % 3 == 0 {
            spec.imports = vec![ImportSpec::versioned(
                "fopen64",
                "libc.so.6",
                &format!("GLIBC_2.{i}"),
            )];
        }
        spec.text_size = 64 + 16 * i;
        images.push(spec.build().expect("spec builds"));
    }
    // Same-length pairs with a one-byte difference, the tightest case the
    // length discriminator cannot help with.
    let tweaked = {
        let mut t = images[0].clone();
        let (j, _) = text_word_offsets(&t);
        t[j] ^= 0x01;
        t
    };
    images.push(tweaked);

    let keys: Vec<BdcKey> = images.iter().map(|i| BdcKey::of(i)).collect();
    for (i, ka) in keys.iter().enumerate() {
        for kb in &keys[i + 1..] {
            assert_ne!(ka, kb, "distinct images {i} share a full key");
        }
    }

    let caches = PhaseCaches::new(0);
    let descs: Vec<Arc<BinaryDescription>> = images
        .iter()
        .enumerate()
        .map(|(i, img)| through_bdc(&caches, keys[i], &format!("/bin/{i}"), img))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        assert!(
            Arc::ptr_eq(
                &caches.bdc.peek(key, Freshness::default()).unwrap(),
                &descs[i]
            ),
            "image {i} must round-trip its own description"
        );
    }
    assert_eq!(caches.bdc.len(), images.len());
}

#[test]
fn key_is_a_pure_function_of_content() {
    let bytes = base_image();
    assert_eq!(BdcKey::of(&bytes), BdcKey::of(&bytes.clone()));
    // Every prefix gets its own key: truncation can never alias.
    let k_full = BdcKey::of(&bytes);
    let k_trunc = BdcKey::of(&bytes[..bytes.len() - 1]);
    assert_ne!(k_full, k_trunc);
    assert_eq!(k_full.len, bytes.len() as u64);
}

#[test]
fn poisoning_guard_keeps_faulted_results_out_of_shared_caches() {
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::faults::{FaultPlan, FaultRate};
    use feam_sim::toolchain::Language;
    use feam_workloads::sites::{standard_sites, INDIA, RANGER};

    let sites = standard_sites(23);
    let india = &sites[INDIA];
    let image = Arc::new(base_image());
    let caches = Arc::new(PhaseCaches::new(0));
    let with_faults = |plan: FaultPlan| PhaseConfig {
        caches: Some(caches.clone()),
        faults: Arc::new(plan),
        ..PhaseConfig::default()
    };

    // Persistent faults on every observation channel: the run degrades and
    // nothing may be memoized — the guard must reject, not poison.
    let plan = FaultPlan {
        vfs_read: FaultPlan::persistent_vfs(77, 1.0).vfs_read,
        ..FaultPlan::persistent_edc(77, 1.0)
    };
    let degraded = run_target_phase(india, Some(&image), None, &with_faults(plan));
    assert!(
        caches.bdc.is_empty(),
        "faulted BDC result must not be cached"
    );
    assert!(
        !caches.edc.contains(india.name()),
        "degraded EDC discovery must not be cached"
    );
    assert!(
        caches.bdc.stats().rejected + caches.edc.stats().rejected > 0,
        "the guard records its rejections"
    );
    assert!(
        !degraded.environment.unobserved.is_empty() || degraded.evaluation.degraded,
        "the chaotic run really was degraded"
    );

    // A clean run afterwards populates the caches and serves under the
    // same keys the degraded run was denied.
    let healthy = run_target_phase(india, Some(&image), None, &with_faults(FaultPlan::none()));
    assert!(!caches.bdc.is_empty(), "clean description is cached");
    assert!(caches.edc.contains(india.name()));
    assert!(healthy.environment.unobserved.is_empty());
    let served = caches.bdc.peek(&BdcKey::of(&image), Freshness::default());
    assert!(
        Arc::ptr_eq(&served.unwrap(), &healthy.binary),
        "the cached entry is the clean run's description"
    );

    // Every native hello-world compile fails: each stack test is served
    // as failed, but none becomes the memoized verdict.
    let ranger = &sites[RANGER];
    let spec = ProgramSpec::new("bt", Language::Fortran);
    let mpi_app = compile(ranger, Some(&ranger.stacks[1]), &spec, 99)
        .expect("compiles at its home site")
        .image;
    let persistent = FaultRate {
        transient: 0.0,
        persistent: 1.0,
    };
    let plan = FaultPlan {
        seed: 77,
        probe_compile: persistent,
        ..FaultPlan::none()
    };
    let failed = run_target_phase(india, Some(&mpi_app), None, &with_faults(plan));
    assert!(failed.evaluation.stack_tests.iter().all(|t| !t.native_ok));
    let rejected = caches.stack_tests.stats().rejected;
    assert!(rejected > 0, "the guard refuses faulted stack tests");
    assert!(
        caches.stack_tests.is_empty(),
        "no faulted verdict is memoized"
    );

    // Fault-free reruns: the first memoizes the verdicts, the second hits.
    let clean = with_faults(FaultPlan::none());
    let first = run_target_phase(india, Some(&mpi_app), None, &clean);
    assert!(
        !caches.stack_tests.is_empty(),
        "clean verdicts are memoized"
    );
    assert_eq!(caches.stack_tests.stats().hits, 0);
    let second = run_target_phase(india, Some(&mpi_app), None, &clean);
    assert!(caches.stack_tests.stats().hits > 0, "the rerun hits");
    assert_eq!(caches.stack_tests.stats().rejected, rejected);
    assert!(first.evaluation.stack_tests.iter().any(|t| t.native_ok));
    assert_eq!(first.prediction.ready(), second.prediction.ready());
}

/// One library image installed at two paths of one site: each copy keeps
/// the path it was copied from, cold and warm, and every copy shares the
/// image's one description, described once.
#[test]
fn one_image_at_two_paths_is_described_once() {
    use feam_core::bdc::collect_libraries_cached;

    let os = OsInfo::new("CentOS", "5.6", "2.6.18");
    let site = Site::build(SiteConfig::new("twin", HostArch::X86_64, os, "2.5", 1).deterministic());
    let mut lib = ElfSpec::shared_library("libtwin.so.1", Machine::X86_64, Class::Elf64);
    lib.needed = vec!["libc.so.6".into()];
    let lib = Arc::new(lib.build().expect("spec builds"));
    let mut app = ElfSpec::executable(Machine::X86_64, Class::Elf64);
    app.needed = vec!["liba.so.1".into(), "libb.so.1".into(), "libc.so.6".into()];
    let app = Arc::new(app.build().expect("spec builds"));
    let caches = PhaseCaches::new(0);
    for run in ["cold", "warm"] {
        let mut sess = Session::new(&site);
        sess.stage_file("/opt/twin/liba.so.1", Arc::clone(&lib));
        sess.stage_file("/opt/twin/libb.so.1", Arc::clone(&lib));
        sess.stage_file("/home/user/app", Arc::clone(&app));
        feam_sim::site::env_prepend(&mut sess.env, "LD_LIBRARY_PATH", "/opt/twin");
        let copies =
            collect_libraries_cached(&mut sess, "/home/user/app", Some(&caches)).expect("collects");
        let [a, b] = ["liba.so.1", "libb.so.1"].map(|so| &copies[so]);
        assert_eq!(copies.len(), 2, "{run}: both names are copied");
        assert_eq!(a.origin, "/opt/twin/liba.so.1", "{run}");
        assert_eq!(b.origin, "/opt/twin/libb.so.1", "{run}");
        assert!(Arc::ptr_eq(&a.description, &b.description), "{run}");
    }
    assert_eq!(caches.bdc.len(), 1, "one image, one entry");
    let s = caches.bdc.stats();
    assert_eq!((s.misses, s.hits), (1, 3), "described once, served thrice");
}

/// Warm reads hand out the stored values: two warm library collections
/// share every description, two warm target phases share the binary and
/// environment descriptions, a target phase after a source phase shares
/// the bundle's app description, and two `ldd` runs on one root share the
/// listing.
#[test]
fn warm_reads_share_what_the_memos_store() {
    use feam_core::bdc::collect_libraries_cached;
    use feam_sim::compile::{compile, ProgramSpec};
    use feam_sim::faults::FaultPlan;
    use feam_sim::toolchain::Language;
    use feam_sim::tools::{ldd, LddResult};
    use feam_workloads::sites::{standard_sites, INDIA, RANGER};

    let sites = standard_sites(23);
    let ranger = &sites[RANGER];
    let ist = &ranger.stacks[1];
    let spec = ProgramSpec::new("bt", Language::Fortran);
    let app = compile(ranger, Some(ist), &spec, 99)
        .expect("compiles at its home site")
        .image;
    let caches = Arc::new(PhaseCaches::new(0));
    let session = || {
        let mut sess = Session::new(ranger);
        sess.faults = Arc::new(FaultPlan::none());
        sess.stage_file("/home/user/app", app.clone());
        sess.load_stack(ist);
        sess
    };

    let collect = || {
        collect_libraries_cached(&mut session(), "/home/user/app", Some(&caches)).expect("collects")
    };
    collect();
    let (a, b) = (collect(), collect());
    assert!(!a.is_empty(), "the app links shared libraries");
    assert!(a.keys().eq(b.keys()));
    for (x, y) in a.values().zip(b.values()) {
        assert!(
            Arc::ptr_eq(&x.description, &y.description),
            "{}: warm collections share the description",
            x.soname
        );
    }

    let cfg = PhaseConfig {
        caches: Some(caches.clone()),
        faults: Arc::new(FaultPlan::none()),
        ..PhaseConfig::default()
    };
    let india = &sites[INDIA];
    run_target_phase(india, Some(&app), None, &cfg);
    let x = run_target_phase(india, Some(&app), None, &cfg);
    let y = run_target_phase(india, Some(&app), None, &cfg);
    assert!(
        Arc::ptr_eq(&x.binary, &y.binary),
        "target phases share the binary"
    );
    assert!(
        Arc::ptr_eq(&x.environment, &y.environment),
        "target phases share the environment"
    );

    // The source phase describes the app at its staged path; a target
    // phase on the same caches stages it elsewhere and is served that
    // description, without a second miss.
    let cold = Arc::new(PhaseCaches::new(0));
    let cold_cfg = PhaseConfig {
        caches: Some(cold.clone()),
        ..cfg.clone()
    };
    let bundle = run_source_phase(ranger, &app, &cold_cfg).expect("source phase");
    let misses = cold.bdc.stats().misses;
    let outcome = run_target_phase(india, Some(&app), None, &cold_cfg);
    assert!(
        Arc::ptr_eq(&outcome.binary, &bundle.app),
        "the target phase is served the bundle's app description"
    );
    assert_eq!(
        cold.bdc.stats().misses,
        misses,
        "one BDC miss for the app, not two"
    );

    // `ldd` may be flaky on a root; the roots it resolves share listings.
    let sess = session();
    let roots = std::iter::once("/home/user/app").chain(a.values().map(|c| c.origin.as_str()));
    let mut shared = 0;
    for root in roots {
        let (LddResult::Resolved(p), LddResult::Resolved(q)) = (ldd(&sess, root), ldd(&sess, root))
        else {
            continue;
        };
        assert!(Arc::ptr_eq(&p, &q), "{root}: ldd runs share the listing");
        shared += 1;
    }
    assert!(shared > 0, "ldd resolves some root");
}
