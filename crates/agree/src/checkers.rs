//! The two independent checkers and the FEAM adapter.
//!
//! Both checkers answer "will this binary run at this site?" from
//! different evidence than FEAM does — and from different evidence than
//! each other. They deliberately model real tools' blind spots: neither
//! knows about MPI stack health, launcher configuration, `LD_LIBRARY_PATH`
//! composition or FEAM's resolution model, so their disagreements with the
//! FEAM member are principled, not bugs.

use crate::inventory::SiteInventory;
use feam_elf::LazyElf;
use feam_sim::site::Site;

/// A member's tri-state readiness verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum MemberVerdict {
    Ready,
    NotReady,
    /// The member could not observe the evidence it needs (static binary,
    /// unparseable image, fault-degraded inventory).
    Unknown,
}

impl MemberVerdict {
    /// Stable label used in reports, JSON and golden tables.
    pub fn label(self) -> &'static str {
        match self {
            MemberVerdict::Ready => "ready",
            MemberVerdict::NotReady => "not-ready",
            MemberVerdict::Unknown => "unknown",
        }
    }

    /// Decided = not `Unknown`.
    pub fn decided(self) -> bool {
        self != MemberVerdict::Unknown
    }
}

/// One checker's answer for one (binary, site) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberOutcome {
    /// Checker name (`feam`, `symdiff`, `closure`).
    pub member: &'static str,
    pub verdict: MemberVerdict,
    /// One-line justification.
    pub detail: String,
    /// True when an injected fault degraded this member's evidence —
    /// such verdicts are `Unknown` and excluded from agreement stats.
    pub fault_observed: bool,
}

impl MemberOutcome {
    fn new(member: &'static str, verdict: MemberVerdict, detail: impl Into<String>) -> Self {
        MemberOutcome {
            member,
            verdict,
            detail: detail.into(),
            fault_observed: false,
        }
    }
}

/// The symbol/version-diff checker (libabigail style).
///
/// Verdict rules, in order:
/// 1. unparseable image → `Unknown`;
/// 2. ISA the site cannot execute → `NotReady`;
/// 3. no dynamic section → `Unknown` (no symbol table to diff);
/// 4. fault-degraded inventory → `Unknown`;
/// 5. a non-weak `.gnu.version_r` requirement whose file has at least one
///    installed provider, none of which defines the version → `NotReady`
///    (a file with *no* provider at all is the closure checker's
///    evidence, not this one's);
/// 6. a strong undefined symbol no installed library exports (with the
///    required version, when the reference is versioned) → `NotReady`;
/// 7. otherwise → `Ready`.
pub fn symbol_diff_check(image: &[u8], site: &Site, inv: &SiteInventory) -> MemberOutcome {
    const M: &str = "symdiff";
    let Ok(f) = LazyElf::parse(image) else {
        return MemberOutcome::new(M, MemberVerdict::Unknown, "unparseable image");
    };
    if !site.config.arch.executes(f.machine(), f.class()) {
        return MemberOutcome::new(
            M,
            MemberVerdict::NotReady,
            format!("{} not executable here", f.machine().name()),
        );
    }
    if !f.is_dynamic() {
        return MemberOutcome::new(
            M,
            MemberVerdict::Unknown,
            "statically linked; no dynamic symbols to diff",
        );
    }
    if inv.degraded {
        let mut out = MemberOutcome::new(M, MemberVerdict::Unknown, "inventory degraded by faults");
        out.fault_observed = true;
        return out;
    }
    let candidates = inv.candidates(f.machine(), f.class());

    // Version-node diff: every non-weak verneed version must be defined
    // by some installed provider of its file.
    for vr in f.version_refs() {
        let providers: Vec<_> = candidates.iter().filter(|e| e.provides(vr.file)).collect();
        if providers.is_empty() {
            continue;
        }
        for v in &vr.versions {
            if v.weak {
                continue;
            }
            if !providers
                .iter()
                .any(|p| p.version_defs.iter().any(|d| d == v.name))
            {
                return MemberOutcome::new(
                    M,
                    MemberVerdict::NotReady,
                    format!("no installed {} defines {}", vr.file, v.name),
                );
            }
        }
    }

    // Symbol diff: every strong undefined symbol must be exported
    // somewhere in the inventory.
    let mut versioned: std::collections::HashSet<(&str, &str)> = Default::default();
    let mut names: std::collections::HashSet<&str> = Default::default();
    for e in &candidates {
        for (name, ver) in &e.exports {
            names.insert(name.as_str());
            if let Some(v) = ver {
                versioned.insert((name.as_str(), v.as_str()));
            }
        }
    }
    for s in f.dynamic_symbols() {
        if !s.undefined || s.weak || s.name.is_empty() {
            continue;
        }
        let satisfied = match s.version {
            Some(v) => versioned.contains(&(s.name, v)),
            None => names.contains(s.name),
        };
        if !satisfied {
            return MemberOutcome::new(
                M,
                MemberVerdict::NotReady,
                format!(
                    "undefined symbol {}{} unsatisfied",
                    s.name,
                    s.version.map(|v| format!("@{v}")).unwrap_or_default()
                ),
            );
        }
    }
    MemberOutcome::new(M, MemberVerdict::Ready, "symbol/version diff clean")
}

/// The `ldd`-closure checker.
///
/// Walks `DT_NEEDED` transitively against the inventory; readiness is
/// purely closure completeness. Verdict rules, in order: unparseable →
/// `Unknown`; ISA mismatch → `NotReady`; static binary → `Unknown` (no
/// `DT_NEEDED` to walk); fault-degraded inventory → `Unknown`; any
/// transitive dependency with no installed provider of the right
/// machine/class → `NotReady`; else `Ready`.
pub fn closure_check(image: &[u8], site: &Site, inv: &SiteInventory) -> MemberOutcome {
    const M: &str = "closure";
    let Ok(f) = LazyElf::parse(image) else {
        return MemberOutcome::new(M, MemberVerdict::Unknown, "unparseable image");
    };
    if !site.config.arch.executes(f.machine(), f.class()) {
        return MemberOutcome::new(
            M,
            MemberVerdict::NotReady,
            format!("{} not executable here", f.machine().name()),
        );
    }
    if !f.is_dynamic() {
        return MemberOutcome::new(
            M,
            MemberVerdict::Unknown,
            "statically linked; no DT_NEEDED to walk",
        );
    }
    if inv.degraded {
        let mut out = MemberOutcome::new(M, MemberVerdict::Unknown, "inventory degraded by faults");
        out.fault_observed = true;
        return out;
    }
    let candidates = inv.candidates(f.machine(), f.class());
    let mut frontier: Vec<String> = f.needed().iter().map(|n| n.to_string()).collect();
    let mut seen: std::collections::HashSet<String> = Default::default();
    while let Some(dep) = frontier.pop() {
        if !seen.insert(dep.clone()) {
            continue;
        }
        // First provider in inventory order; deterministic because the
        // inventory itself is.
        match candidates.iter().find(|e| e.provides(&dep)) {
            Some(e) => frontier.extend(e.needed.iter().cloned()),
            None => {
                return MemberOutcome::new(
                    M,
                    MemberVerdict::NotReady,
                    format!("{dep} missing from site inventory"),
                );
            }
        }
    }
    MemberOutcome::new(M, MemberVerdict::Ready, "DT_NEEDED closure complete")
}

/// The FEAM adapter: map an existing prediction onto the member scale.
/// Degraded (any determinant `Unknown`) → `Unknown`; ready → `Ready`;
/// otherwise `NotReady`. Read-only — the pipeline's outcome is never
/// recomputed or perturbed, keeping the FEAM member byte-identical to
/// the standalone pipeline.
pub fn feam_member(prediction: &feam_core::predict::Prediction) -> MemberOutcome {
    let (verdict, detail) = if prediction.degraded() {
        (MemberVerdict::Unknown, "prediction degraded".to_string())
    } else if prediction.ready() {
        (MemberVerdict::Ready, "all determinants compatible".into())
    } else {
        let why = prediction
            .first_failure()
            .map(|v| format!("{} incompatible", v.determinant.name()))
            .unwrap_or_else(|| "nothing positively decided".into());
        (MemberVerdict::NotReady, why)
    };
    MemberOutcome {
        member: "feam",
        verdict,
        detail,
        fault_observed: prediction.degraded(),
    }
}
