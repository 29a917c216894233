//! The execution prediction model (§III, Figure 1).
//!
//! Four determinants decide execution readiness:
//!
//! 1. **ISA compatibility** — compiled for an ISA (and word length) the
//!    target hardware executes.
//! 2. **MPI stack compatibility** — a *functioning* stack of the same MPI
//!    implementation type exists at the target (versions are deliberately
//!    not compared — §III.B found no reliable backward-compatibility rule).
//! 3. **C library compatibility** — the target's C library version is ≥
//!    the binary's required C library version.
//! 4. **Shared library compatibility** — every required shared library is
//!    available in an API-compatible (same major) version, possibly after
//!    resolution.

use feam_elf::{Class, HostArch, Machine, Soname, VersionName};
use serde::Serialize;

/// The four determinants of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Determinant {
    Isa,
    MpiStack,
    CLibrary,
    SharedLibraries,
}

impl Determinant {
    /// The question the paper phrases for this determinant.
    pub fn question(self) -> &'static str {
        match self {
            Determinant::Isa => "Was the application compiled for a compatible ISA?",
            Determinant::MpiStack => {
                "Is there a compatible MPI stack functioning at the target site?"
            }
            Determinant::CLibrary => {
                "Are the application's C library requirements met at the target site?"
            }
            Determinant::SharedLibraries => {
                "Are all correct versions of the shared libraries available at the target site?"
            }
        }
    }

    /// Stable short label, used in reports, metric names and trace events.
    pub fn name(self) -> &'static str {
        match self {
            Determinant::Isa => "Isa",
            Determinant::MpiStack => "MpiStack",
            Determinant::CLibrary => "CLibrary",
            Determinant::SharedLibraries => "SharedLibraries",
        }
    }

    /// All four, in evaluation order (§V.C: ISA and C library first, then
    /// MPI stack, then shared libraries).
    pub fn evaluation_order() -> [Determinant; 4] {
        [
            Determinant::Isa,
            Determinant::CLibrary,
            Determinant::MpiStack,
            Determinant::SharedLibraries,
        ]
    }
}

/// Tri-state determination of one determinant.
///
/// `Unknown` is the graceful-degradation state: the evidence needed to
/// decide the determinant could not be observed (description files
/// unreadable, databases corrupt), so the prediction proceeds on partial
/// evidence with lowered confidence instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Determination {
    Compatible,
    Incompatible,
    /// Could not be observed; counts against confidence, not readiness.
    Unknown,
}

impl Determination {
    /// Map a decided boolean onto the tri-state.
    pub fn of(compatible: bool) -> Self {
        if compatible {
            Determination::Compatible
        } else {
            Determination::Incompatible
        }
    }

    /// Stable short label used in reports and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Determination::Compatible => "compatible",
            Determination::Incompatible => "incompatible",
            Determination::Unknown => "unknown",
        }
    }
}

/// The verdict on one determinant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DeterminantVerdict {
    pub determinant: Determinant,
    pub verdict: Determination,
    /// Human-readable justification, written to the user's output file.
    pub detail: String,
}

impl DeterminantVerdict {
    /// True only for a positively decided determinant.
    pub fn compatible(&self) -> bool {
        self.verdict == Determination::Compatible
    }

    /// True when the determinant could not be observed.
    pub fn unknown(&self) -> bool {
        self.verdict == Determination::Unknown
    }
}

/// Which FEAM phases informed a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PredictionMode {
    /// Target phase only (§VI.B's *basic prediction*).
    Basic,
    /// Source + target phases (*extended prediction*): transported
    /// hello-world tests and library-copy resolution available.
    Extended,
}

/// One ensemble member's readiness verdict, as recorded in a
/// [`Dissent`] report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MemberVote {
    /// Checker name (`feam`, `symdiff`, `closure`).
    pub member: String,
    /// `ready`, `not-ready` or `unknown`.
    pub verdict: String,
}

/// Ensemble disagreement attached to a prediction by the checker
/// ensemble (`feam-agree`). Absent on every prediction the standalone
/// pipeline produces — only the ensemble/serving layer fills it in.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dissent {
    /// Every member's verdict, in canonical member order.
    pub members: Vec<MemberVote>,
    /// Members that reached a decided (non-`unknown`) verdict.
    pub decided: u32,
    /// Unordered decided-member pairs that disagreed.
    pub disagreeing_pairs: u32,
    /// Total unordered decided-member pairs.
    pub total_pairs: u32,
}

impl Dissent {
    /// Contested: at least one decided pair of members disagreed.
    pub fn contested(&self) -> bool {
        self.disagreeing_pairs > 0
    }

    /// Chance-free agreement factor in `[0, 1]`: the fraction of decided
    /// member pairs that agreed (1.0 with fewer than two decided members
    /// — a lone voice cannot disagree with itself).
    pub fn agreement(&self) -> f64 {
        if self.total_pairs == 0 {
            return 1.0;
        }
        1.0 - self.disagreeing_pairs as f64 / self.total_pairs as f64
    }
}

/// A complete prediction for one (binary, target site) pair.
#[derive(Debug, Clone, Serialize)]
pub struct Prediction {
    pub mode: PredictionMode,
    /// Verdicts in evaluation order; evaluation may stop early when a
    /// determinant fails (the paper details the reasons to the user).
    pub verdicts: Vec<DeterminantVerdict>,
    /// Checker-ensemble disagreement, when an ensemble ran (`feam-agree`).
    /// `None` — the default everywhere in the standalone pipeline —
    /// leaves confidence exactly at its pre-ensemble value.
    pub dissent: Option<Dissent>,
}

impl Prediction {
    /// Start an empty prediction.
    pub fn new(mode: PredictionMode) -> Self {
        Prediction {
            mode,
            verdicts: Vec::new(),
            dissent: None,
        }
    }

    /// Record a decided (boolean) verdict.
    pub fn record(
        &mut self,
        determinant: Determinant,
        compatible: bool,
        detail: impl Into<String>,
    ) {
        self.record_determination(determinant, Determination::of(compatible), detail);
    }

    /// Record a tri-state verdict.
    pub fn record_determination(
        &mut self,
        determinant: Determinant,
        verdict: Determination,
        detail: impl Into<String>,
    ) {
        self.verdicts.push(DeterminantVerdict {
            determinant,
            verdict,
            detail: detail.into(),
        });
    }

    /// Record an unobservable determinant (graceful degradation).
    pub fn record_unknown(&mut self, determinant: Determinant, detail: impl Into<String>) {
        self.record_determination(determinant, Determination::Unknown, detail);
    }

    /// Ready iff no evaluated determinant is incompatible and at least one
    /// was positively decided. `Unknown` verdicts do not veto readiness —
    /// they lower [`Prediction::confidence`] instead.
    pub fn ready(&self) -> bool {
        self.verdicts.iter().any(|v| v.compatible())
            && !self
                .verdicts
                .iter()
                .any(|v| v.verdict == Determination::Incompatible)
    }

    /// The first incompatible determinant, if any.
    pub fn first_failure(&self) -> Option<&DeterminantVerdict> {
        self.verdicts
            .iter()
            .find(|v| v.verdict == Determination::Incompatible)
    }

    /// Degraded iff any determinant could not be observed.
    pub fn degraded(&self) -> bool {
        self.verdicts.iter().any(|v| v.unknown())
    }

    /// Fraction of evaluated determinants that were actually decided
    /// (1.0 = fully observed, 0.0 = nothing evaluated or all unknown),
    /// discounted by the ensemble agreement factor when a checker
    /// ensemble attached a [`Dissent`] — each disagreeing member pair
    /// shaves a proportional slice off, so confidence is monotonically
    /// non-increasing in the disagreement count.
    pub fn confidence(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        let decided = self.verdicts.iter().filter(|v| !v.unknown()).count();
        let base = decided as f64 / self.verdicts.len() as f64;
        match &self.dissent {
            Some(d) => base * d.agreement(),
            None => base,
        }
    }

    /// Contested: an ensemble ran and its decided members disagreed.
    pub fn contested(&self) -> bool {
        self.dissent.as_ref().is_some_and(Dissent::contested)
    }
}

/// Determinant 1: ISA compatibility.
pub fn isa_compatible(target: HostArch, machine: Machine, class: Class) -> bool {
    target.executes(machine, class)
}

/// Determinant 3: C library compatibility — target version ≥ required.
/// A binary without versioned C library references is compatible with any
/// target; a target whose C library version could not be discovered is
/// treated as incompatible (no basis for a positive claim).
pub fn c_library_compatible(required: Option<&VersionName>, target: Option<&VersionName>) -> bool {
    match (required, target) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(req), Some(t)) => t.cmp_same_prefix(req).map(|o| o.is_ge()).unwrap_or(false),
    }
}

/// Determinant 4 helper: §III.D's naming-convention compatibility — a
/// provided library satisfies a request when base names match and, when the
/// request pins a major version, the majors agree.
pub fn shared_library_compatible(requested: &str, provided: &str) -> bool {
    match (Soname::parse(requested), Soname::parse(provided)) {
        (Some(req), Some(prov)) => req.api_compatible_with(&prov),
        _ => requested == provided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn questions_match_paper_wording() {
        assert!(Determinant::Isa.question().contains("ISA"));
        assert!(Determinant::MpiStack.question().contains("MPI stack"));
        assert!(Determinant::CLibrary.question().contains("C library"));
        assert!(Determinant::SharedLibraries
            .question()
            .contains("shared libraries"));
    }

    #[test]
    fn prediction_ready_requires_all_compatible() {
        let mut p = Prediction::new(PredictionMode::Basic);
        assert!(!p.ready(), "empty prediction is not ready");
        p.record(Determinant::Isa, true, "x86-64 on x86_64");
        p.record(Determinant::CLibrary, true, "GLIBC_2.3.4 <= GLIBC_2.5");
        assert!(p.ready());
        p.record(
            Determinant::MpiStack,
            false,
            "no functioning Open MPI stack",
        );
        assert!(!p.ready());
        assert_eq!(
            p.first_failure().unwrap().determinant,
            Determinant::MpiStack
        );
    }

    #[test]
    fn unknown_verdicts_degrade_confidence_without_vetoing_readiness() {
        let mut p = Prediction::new(PredictionMode::Basic);
        p.record(Determinant::Isa, true, "x86-64 on x86_64");
        p.record_unknown(Determinant::CLibrary, "target C library unobservable");
        p.record(Determinant::MpiStack, true, "openmpi-1.4 functioning");
        p.record(Determinant::SharedLibraries, true, "all resolved");
        assert!(p.ready(), "Unknown does not veto readiness");
        assert!(p.degraded());
        assert!((p.confidence() - 0.75).abs() < 1e-9);
        assert!(p.first_failure().is_none());

        let mut all_unknown = Prediction::new(PredictionMode::Basic);
        all_unknown.record_unknown(Determinant::Isa, "binary unreadable");
        assert!(!all_unknown.ready(), "nothing positively decided");
        assert_eq!(all_unknown.confidence(), 0.0);

        let mut mixed = Prediction::new(PredictionMode::Basic);
        mixed.record_unknown(Determinant::CLibrary, "unobservable");
        mixed.record(Determinant::Isa, false, "ppc64 binary");
        assert!(!mixed.ready());
        assert_eq!(mixed.first_failure().unwrap().determinant, Determinant::Isa);
    }

    #[test]
    fn c_library_rule_is_greater_or_equal() {
        let v234 = VersionName::parse("GLIBC_2.3.4").unwrap();
        let v25 = VersionName::parse("GLIBC_2.5").unwrap();
        let v212 = VersionName::parse("GLIBC_2.12").unwrap();
        assert!(c_library_compatible(Some(&v234), Some(&v25)));
        assert!(c_library_compatible(Some(&v25), Some(&v25)));
        assert!(!c_library_compatible(Some(&v212), Some(&v25)));
        assert!(c_library_compatible(None, Some(&v25)));
        assert!(c_library_compatible(None, None));
        assert!(!c_library_compatible(Some(&v25), None));
    }

    #[test]
    fn shared_library_major_rule() {
        assert!(shared_library_compatible(
            "libgfortran.so.1",
            "libgfortran.so.1.0.0"
        ));
        assert!(!shared_library_compatible(
            "libgfortran.so.1",
            "libgfortran.so.3"
        ));
        assert!(shared_library_compatible("libimf.so", "libimf.so"));
        assert!(!shared_library_compatible("libimf.so", "libsvml.so"));
    }

    #[test]
    fn isa_determinant_delegates_to_hardware_model() {
        assert!(isa_compatible(HostArch::X86_64, Machine::X86, Class::Elf32));
        assert!(!isa_compatible(
            HostArch::X86_64,
            Machine::Ppc64,
            Class::Elf64
        ));
    }

    #[test]
    fn dissent_discounts_confidence_and_marks_contested() {
        let mut p = Prediction::new(PredictionMode::Basic);
        p.record(Determinant::Isa, true, "ok");
        p.record(Determinant::CLibrary, true, "ok");
        assert_eq!(p.confidence(), 1.0);
        assert!(!p.contested(), "no ensemble, nothing contested");

        // Three decided members, one dissenter: 2 of 3 pairs disagree.
        p.dissent = Some(Dissent {
            members: vec![
                MemberVote {
                    member: "feam".into(),
                    verdict: "ready".into(),
                },
                MemberVote {
                    member: "symdiff".into(),
                    verdict: "not-ready".into(),
                },
                MemberVote {
                    member: "closure".into(),
                    verdict: "ready".into(),
                },
            ],
            decided: 3,
            disagreeing_pairs: 2,
            total_pairs: 3,
        });
        assert!(p.contested());
        assert!((p.confidence() - 1.0 / 3.0).abs() < 1e-9);

        // Unanimous ensembles change nothing.
        let d = p.dissent.as_mut().unwrap();
        d.disagreeing_pairs = 0;
        assert!(!p.contested());
        assert_eq!(p.confidence(), 1.0);

        // A lone decided member has no pairs and full agreement.
        let lone = Dissent {
            members: vec![MemberVote {
                member: "feam".into(),
                verdict: "ready".into(),
            }],
            decided: 1,
            disagreeing_pairs: 0,
            total_pairs: 0,
        };
        assert_eq!(lone.agreement(), 1.0);
        assert!(!lone.contested());
    }

    #[test]
    fn evaluation_order_checks_cheap_determinants_first() {
        let order = Determinant::evaluation_order();
        assert_eq!(order[0], Determinant::Isa);
        assert_eq!(order[1], Determinant::CLibrary);
        assert_eq!(order[3], Determinant::SharedLibraries);
    }
}
