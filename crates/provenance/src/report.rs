//! The structured result of a provenance scan.

use feam_sim::mpi::MpiImpl;
use feam_sim::toolchain::CompilerFamily;
use serde::Serialize;

/// Which evidence tier established a claim. Ordered strongest-first; the
/// calibrated confidences are all strictly below the `1.0` that direct
/// evidence (`.comment`, `DT_NEEDED`, `verneed`) carries, so a provenance
/// claim can never outrank a direct observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EvidenceTier {
    /// The family idiom *and* exact version bytes matched the signature
    /// database.
    VersionSignature,
    /// Only the family idiom matched — the exact version is not in the
    /// database (an unknown release of a known family).
    FamilyIdiom,
    /// No code-signature match; the claim rests on runtime-library
    /// function-name shapes alone.
    SymbolShape,
}

impl EvidenceTier {
    /// The calibrated confidence of a claim established at this tier.
    pub fn confidence(self) -> f64 {
        match self {
            EvidenceTier::VersionSignature => 0.9,
            EvidenceTier::FamilyIdiom => 0.7,
            EvidenceTier::SymbolShape => 0.5,
        }
    }

    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EvidenceTier::VersionSignature => "version-signature",
            EvidenceTier::FamilyIdiom => "family-idiom",
            EvidenceTier::SymbolShape => "symbol-shape",
        }
    }
}

/// The compiler that (probably) built the binary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompilerClaim {
    pub family: CompilerFamily,
    /// Exact version when the version signature matched; `None` on a
    /// family-only or symbol-shape claim.
    pub version: Option<String>,
    pub tier: EvidenceTier,
    pub confidence: f64,
}

impl CompilerClaim {
    pub(crate) fn new(family: CompilerFamily, version: Option<&str>, tier: EvidenceTier) -> Self {
        CompilerClaim {
            family,
            version: version.map(Into::into),
            tier,
            confidence: tier.confidence(),
        }
    }

    /// Human-readable rendering, e.g. `GNU 4.1.2 (version-signature, 0.90)`.
    pub fn render(&self) -> String {
        match &self.version {
            Some(v) => format!(
                "{} {} ({}, {:.2})",
                self.family.name(),
                v,
                self.tier.label(),
                self.confidence
            ),
            None => format!(
                "{} ({}, {:.2})",
                self.family.name(),
                self.tier.label(),
                self.confidence
            ),
        }
    }
}

/// A language/compiler runtime library observed in the binary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuntimeClaim {
    /// Which runtime, e.g. `gfortran runtime` or `intel fortran runtime`.
    pub runtime: String,
    /// The fingerprint that betrayed it (a soname or a function name).
    pub evidence: String,
    pub confidence: f64,
}

/// The MPI implementation the binary was linked against.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MpiClaim {
    pub implementation: MpiImpl,
    pub tier: EvidenceTier,
    pub confidence: f64,
}

impl MpiClaim {
    pub(crate) fn new(implementation: MpiImpl, tier: EvidenceTier) -> Self {
        MpiClaim {
            implementation,
            tier,
            confidence: tier.confidence(),
        }
    }

    /// Human-readable rendering, e.g. `Open MPI (family-idiom, 0.70)`.
    pub fn render(&self) -> String {
        format!(
            "{} ({}, {:.2})",
            self.implementation.name(),
            self.tier.label(),
            self.confidence
        )
    }
}

/// Everything a provenance scan recovered from one binary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProvenanceReport {
    /// Version of the signature database that produced the claims.
    pub db_version: u32,
    pub compiler: Option<CompilerClaim>,
    pub runtime: Vec<RuntimeClaim>,
    pub mpi_stack: Option<MpiClaim>,
    /// The strongest claim's confidence; `0.0` when nothing matched.
    pub confidence: f64,
}

impl ProvenanceReport {
    /// A report with no claims.
    pub fn empty(db_version: u32) -> Self {
        ProvenanceReport {
            db_version,
            compiler: None,
            runtime: Vec::new(),
            mpi_stack: None,
            confidence: 0.0,
        }
    }

    /// True when the scan recovered nothing.
    pub fn is_empty(&self) -> bool {
        self.compiler.is_none() && self.runtime.is_empty() && self.mpi_stack.is_none()
    }

    /// Recompute the overall confidence from the per-claim ones.
    pub(crate) fn finalize(mut self) -> Self {
        let mut c: f64 = 0.0;
        if let Some(cc) = &self.compiler {
            c = c.max(cc.confidence);
        }
        if let Some(m) = &self.mpi_stack {
            c = c.max(m.confidence);
        }
        for r in &self.runtime {
            c = c.max(r.confidence);
        }
        debug_assert!(c < 1.0, "provenance must stay below direct evidence");
        self.confidence = c;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_calibrated_strictly_below_direct_evidence() {
        for t in [
            EvidenceTier::VersionSignature,
            EvidenceTier::FamilyIdiom,
            EvidenceTier::SymbolShape,
        ] {
            assert!(t.confidence() < 1.0);
            assert!(t.confidence() > 0.0);
        }
        assert!(
            EvidenceTier::VersionSignature.confidence() > EvidenceTier::FamilyIdiom.confidence()
        );
        assert!(EvidenceTier::FamilyIdiom.confidence() > EvidenceTier::SymbolShape.confidence());
    }

    #[test]
    fn report_confidence_is_the_strongest_claim() {
        let mut r = ProvenanceReport::empty(1);
        assert!(r.is_empty());
        r.compiler = Some(CompilerClaim::new(
            CompilerFamily::Gnu,
            None,
            EvidenceTier::FamilyIdiom,
        ));
        r.mpi_stack = Some(MpiClaim::new(MpiImpl::OpenMpi, EvidenceTier::SymbolShape));
        let r = r.finalize();
        assert_eq!(r.confidence, 0.7);
        assert!(!r.is_empty());
    }
}
