//! Deterministic fault injection for the simulated sites.
//!
//! A [`FaultPlan`] is attached to a [`crate::site::Session`] and consulted at
//! the chokepoints FEAM actually exercises: VFS reads, `/proc`//`/etc`
//! description files, module/softenv databases, probe compiles and
//! `mpiexec` daemon spawns. Every draw is a pure function
//! of `(plan seed, chokepoint, key, attempt)` via [`crate::rng`], so a chaos
//! run is exactly reproducible from its seed.
//!
//! Faults are tagged [`FaultKind::Transient`] (keyed by attempt number —
//! a retry re-rolls and can succeed) or [`FaultKind::Persistent`] (keyed by
//! the stable part only — retries keep failing), which is what makes
//! retry/backoff policies meaningfully testable.

use std::sync::{Arc, OnceLock};

use crate::rng;

/// Whether an injected fault clears on retry or sticks forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Re-rolled per attempt; a bounded retry loop can recover.
    Transient,
    /// Stable for the (seed, chokepoint, key) triple; retries cannot help.
    Persistent,
}

impl FaultKind {
    /// Short label used in telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent",
        }
    }
}

/// The places in the pipeline where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chokepoint {
    /// Any `Session::read_bytes` — staged overlays and site files alike.
    VfsRead,
    /// `/proc/version`, `/etc/*release`, and the libc banner probe.
    DescriptionFile,
    /// Environment Modules / SoftEnv database reads.
    ModuleDb,
    /// Hello-world probe compiles (flaky license servers, NFS toolchains).
    ProbeCompile,
    /// `mpiexec` daemon spawn — the paper's §VI.C failure mode.
    DaemonSpawn,
}

impl Chokepoint {
    /// Stable label used both in RNG keys and telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            Chokepoint::VfsRead => "vfs_read",
            Chokepoint::DescriptionFile => "description_file",
            Chokepoint::ModuleDb => "module_db",
            Chokepoint::ProbeCompile => "probe_compile",
            Chokepoint::DaemonSpawn => "daemon_spawn",
        }
    }

    /// Every chokepoint, for iteration in sweeps and docs.
    pub const ALL: [Chokepoint; 5] = [
        Chokepoint::VfsRead,
        Chokepoint::DescriptionFile,
        Chokepoint::ModuleDb,
        Chokepoint::ProbeCompile,
        Chokepoint::DaemonSpawn,
    ];
}

/// Per-chokepoint fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRate {
    /// Probability of a transient fault per attempt.
    pub transient: f64,
    /// Probability the (chokepoint, key) pair is persistently broken.
    pub persistent: f64,
}

impl FaultRate {
    /// A rate that never fires.
    pub fn zero() -> Self {
        FaultRate::default()
    }

    /// True when no fault can ever fire at this rate.
    pub fn is_zero(&self) -> bool {
        self.transient <= 0.0 && self.persistent <= 0.0
    }
}

/// A deterministic, seeded schedule of faults across all chokepoints.
///
/// The default plan injects nothing; `Session::new` picks up the
/// process-wide plan from `FEAM_CHAOS_RATE`/`FEAM_CHAOS_SEED` (see
/// [`FaultPlan::from_env`]) so CI can chaos-test the whole suite without
/// code changes.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed mixed into every draw; independent of site seeds.
    pub seed: u64,
    pub vfs_read: FaultRate,
    pub description_file: FaultRate,
    pub module_db: FaultRate,
    pub probe_compile: FaultRate,
    pub daemon_spawn: FaultRate,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no chokepoint can ever fault — the fast path.
    pub fn is_none(&self) -> bool {
        Chokepoint::ALL.iter().all(|&c| self.rate(c).is_zero())
    }

    /// Transient-only chaos at `rate` across the retry-covered chokepoints.
    ///
    /// VFS reads are left alone: `read_bytes` has no attempt axis, so a
    /// "transient" VFS fault would stick to its path for the whole run.
    /// Drive VFS faults explicitly (e.g. [`FaultPlan::persistent_vfs`])
    /// in targeted tests instead.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        let r = FaultRate {
            transient: rate,
            persistent: 0.0,
        };
        FaultPlan {
            seed,
            vfs_read: FaultRate::zero(),
            description_file: r,
            module_db: r,
            probe_compile: r,
            daemon_spawn: r,
        }
    }

    /// Persistent EDC description-file faults at `rate` (1.0 = every
    /// description read fails, forever). Module databases are included:
    /// both feed the environment description.
    pub fn persistent_edc(seed: u64, rate: f64) -> Self {
        let r = FaultRate {
            transient: 0.0,
            persistent: rate,
        };
        FaultPlan {
            seed,
            description_file: r,
            module_db: r,
            ..FaultPlan::default()
        }
    }

    /// Persistent VFS read faults at `rate` — makes staged binaries and
    /// libraries unreadable.
    pub fn persistent_vfs(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            vfs_read: FaultRate {
                transient: 0.0,
                persistent: rate,
            },
            ..FaultPlan::default()
        }
    }

    /// Build a plan from `FEAM_CHAOS_RATE` / `FEAM_CHAOS_SEED`.
    ///
    /// Restricted to the transient, retry-covered chokepoints (probe
    /// compiles, daemon spawns) so that exact-outcome
    /// unit tests keep passing while the retry paths stay exercised.
    /// Returns [`FaultPlan::none`] when the rate is unset or unparsable.
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("FEAM_CHAOS_RATE").ok().as_deref(),
            std::env::var("FEAM_CHAOS_SEED").ok().as_deref(),
        )
    }

    /// The testable core of [`FaultPlan::from_env`]: build a plan from the
    /// raw variable values. Malformed input never panics — an empty,
    /// non-numeric, negative or non-finite rate falls back to the silent
    /// plan with a stderr warning, a rate above 1.0 clamps to 1.0, and a
    /// malformed seed falls back to seed 1.
    pub fn from_env_values(rate: Option<&str>, seed: Option<&str>) -> Self {
        let Some(raw_rate) = rate.map(str::trim).filter(|r| !r.is_empty()) else {
            return FaultPlan::none();
        };
        let rate = match raw_rate.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 1.0 => {
                eprintln!("feam-sim: FEAM_CHAOS_RATE={raw_rate} is above 1.0; clamping to 1.0");
                1.0
            }
            Ok(r) if r.is_finite() && r > 0.0 => r,
            Ok(r) => {
                if r != 0.0 {
                    eprintln!(
                        "feam-sim: FEAM_CHAOS_RATE={raw_rate} is not a probability in [0, 1]; \
                         chaos disabled"
                    );
                }
                return FaultPlan::none();
            }
            Err(_) => {
                eprintln!("feam-sim: FEAM_CHAOS_RATE={raw_rate} is not a number; chaos disabled");
                return FaultPlan::none();
            }
        };
        let seed = match seed.map(str::trim).filter(|s| !s.is_empty()) {
            None => 1,
            Some(raw) => raw.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("feam-sim: FEAM_CHAOS_SEED={raw} is not a u64; using seed 1");
                1
            }),
        };
        let r = FaultRate {
            transient: rate,
            persistent: 0.0,
        };
        FaultPlan {
            seed,
            probe_compile: r,
            daemon_spawn: r,
            ..FaultPlan::default()
        }
    }

    /// The configured rate for a chokepoint.
    pub fn rate(&self, c: Chokepoint) -> FaultRate {
        match c {
            Chokepoint::VfsRead => self.vfs_read,
            Chokepoint::DescriptionFile => self.description_file,
            Chokepoint::ModuleDb => self.module_db,
            Chokepoint::ProbeCompile => self.probe_compile,
            Chokepoint::DaemonSpawn => self.daemon_spawn,
        }
    }

    /// Roll for a fault at `c` identified by `key`, on retry `attempt`.
    ///
    /// Persistent faults are drawn first from the stable
    /// `(chokepoint, key)` pair; transient faults additionally mix in the
    /// attempt number, so each retry gets a fresh draw.
    pub fn roll(&self, c: Chokepoint, key: &str, attempt: u32) -> Option<FaultKind> {
        let rate = self.rate(c);
        if rate.persistent > 0.0
            && rng::chance(self.seed, &[c.label(), key, "persistent"], rate.persistent)
        {
            return Some(FaultKind::Persistent);
        }
        if rate.transient > 0.0
            && rng::chance(
                self.seed,
                &[c.label(), key, "transient", &attempt.to_string()],
                rate.transient,
            )
        {
            return Some(FaultKind::Transient);
        }
        None
    }
}

/// The process-wide default plan, read once from the environment.
///
/// `Session::new` attaches this so `FEAM_CHAOS_RATE=0.05 cargo test`
/// chaos-tests every session without plumbing changes.
pub fn default_plan() -> Arc<FaultPlan> {
    static PLAN: OnceLock<Arc<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| Arc::new(FaultPlan::from_env())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_silent() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for c in Chokepoint::ALL {
            for attempt in 1..=5 {
                assert_eq!(p.roll(c, "anything", attempt), None);
            }
        }
    }

    #[test]
    fn persistent_faults_survive_retries() {
        let p = FaultPlan::persistent_edc(9, 1.0);
        for attempt in 1..=10 {
            assert_eq!(
                p.roll(Chokepoint::DescriptionFile, "/proc/version", attempt),
                Some(FaultKind::Persistent)
            );
        }
        // Other chokepoints untouched.
        assert_eq!(p.roll(Chokepoint::ProbeCompile, "x", 1), None);
    }

    #[test]
    fn transient_faults_rerolled_per_attempt() {
        let p = FaultPlan::chaos(3, 0.5);
        let draws: Vec<bool> = (1..=32)
            .map(|a| p.roll(Chokepoint::DaemonSpawn, "job", a).is_some())
            .collect();
        // At rate 0.5 over 32 attempts both outcomes must appear — the
        // attempt number genuinely re-rolls the draw.
        assert!(draws.iter().any(|&d| d));
        assert!(draws.iter().any(|&d| !d));
        // And every fault is tagged transient.
        for a in 1..=32 {
            if let Some(kind) = p.roll(Chokepoint::DaemonSpawn, "job", a) {
                assert_eq!(kind, FaultKind::Transient);
            }
        }
    }

    #[test]
    fn rolls_are_deterministic_and_key_sensitive() {
        let p = FaultPlan::chaos(11, 0.4);
        for a in 1..=8 {
            assert_eq!(
                p.roll(Chokepoint::ProbeCompile, "hello@openmpi", a),
                p.roll(Chokepoint::ProbeCompile, "hello@openmpi", a)
            );
        }
        let hits_a = (1..=64)
            .filter(|&a| p.roll(Chokepoint::ProbeCompile, "a", a).is_some())
            .count();
        let hits_b = (1..=64)
            .filter(|&a| p.roll(Chokepoint::ProbeCompile, "b", a).is_some())
            .count();
        // Different keys see different fault schedules (overwhelmingly).
        assert_ne!(
            (1..=64)
                .map(|a| p.roll(Chokepoint::ProbeCompile, "a", a).is_some())
                .collect::<Vec<_>>(),
            (1..=64)
                .map(|a| p.roll(Chokepoint::ProbeCompile, "b", a).is_some())
                .collect::<Vec<_>>()
        );
        // Both keys fault at roughly the configured rate.
        assert!(hits_a > 0 && hits_a < 64);
        assert!(hits_b > 0 && hits_b < 64);
    }

    #[test]
    fn env_plan_parses_well_formed_values() {
        let p = FaultPlan::from_env_values(Some("0.05"), Some("7"));
        assert_eq!(p.seed, 7);
        assert_eq!(p.probe_compile.transient, 0.05);
        assert_eq!(p.daemon_spawn.transient, 0.05);
        assert!(p.vfs_read.is_zero(), "VFS reads stay out of ambient chaos");
    }

    #[test]
    fn env_plan_unset_or_empty_rate_is_silent() {
        assert!(FaultPlan::from_env_values(None, None).is_none());
        assert!(FaultPlan::from_env_values(Some(""), Some("3")).is_none());
        assert!(FaultPlan::from_env_values(Some("   "), None).is_none());
        assert!(FaultPlan::from_env_values(Some("0"), None).is_none());
        assert!(FaultPlan::from_env_values(Some("0.0"), None).is_none());
    }

    #[test]
    fn env_plan_non_numeric_rate_disables_chaos() {
        assert!(FaultPlan::from_env_values(Some("lots"), None).is_none());
        assert!(FaultPlan::from_env_values(Some("0.05%"), None).is_none());
        assert!(FaultPlan::from_env_values(Some("NaN"), None).is_none());
    }

    #[test]
    fn env_plan_negative_rate_disables_chaos() {
        assert!(FaultPlan::from_env_values(Some("-0.3"), None).is_none());
        assert!(FaultPlan::from_env_values(Some("-inf"), None).is_none());
    }

    #[test]
    fn env_plan_rate_above_one_clamps() {
        let p = FaultPlan::from_env_values(Some("1.7"), None);
        assert_eq!(p.probe_compile.transient, 1.0);
        let p = FaultPlan::from_env_values(Some("inf"), None);
        assert!(p.is_none(), "a non-finite rate cannot clamp meaningfully");
    }

    #[test]
    fn env_plan_malformed_seed_falls_back_to_one() {
        let p = FaultPlan::from_env_values(Some("0.1"), Some("not-a-seed"));
        assert_eq!(p.seed, 1);
        let p = FaultPlan::from_env_values(Some("0.1"), Some("-4"));
        assert_eq!(p.seed, 1);
        let p = FaultPlan::from_env_values(Some("0.1"), Some(""));
        assert_eq!(p.seed, 1);
    }

    #[test]
    fn chaos_plan_leaves_vfs_alone() {
        let p = FaultPlan::chaos(5, 1.0);
        assert_eq!(p.roll(Chokepoint::VfsRead, "/lib64/libc.so.6", 1), None);
        assert!(p
            .roll(Chokepoint::DescriptionFile, "/proc/version", 1)
            .is_some());
    }
}
