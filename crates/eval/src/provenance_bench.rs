//! Provenance accuracy benchmark (`feam-eval --provenance-bench`).
//!
//! Grades the fallback evidence tier (`feam-provenance`) against the
//! hostile corpus — the stripped/static/cross twins of every §VI.A corpus
//! binary, each carrying its build ground truth. Two CI gates:
//!
//! * **family accuracy** — the matcher must recover the compiler family on
//!   at least [`MIN_FAMILY_ACCURACY`] of the hostile corpus;
//! * **confidence inversions** — zero tolerance. An inversion is any
//!   provenance claim calibrated at or above the `1.0` that direct
//!   evidence carries, or a hostile twin whose end-to-end prediction
//!   confidence *exceeds* its cooperative base binary's (fallback evidence
//!   upgrading a prediction it may only degrade).

use feam_core::phases::{run_target_phase, PhaseConfig};
use feam_elf::LazyElf;
use feam_provenance::{analyze, ProvenanceReport};
use feam_sim::compile::BinaryVariant;
use feam_workloads::hostile::{hostile_corpus, HOSTILE_VARIANTS};
use feam_workloads::sites::standard_sites;
use feam_workloads::testset::{TestSet, TestSetBuilder};
use serde::Serialize;

/// The CI floor on compiler-family recovery.
pub const MIN_FAMILY_ACCURACY: f64 = 0.9;

/// Accuracy of one hostile variant.
#[derive(Debug, Clone, Serialize)]
pub struct VariantAccuracy {
    /// `stripped` / `static` / `cross`.
    pub variant: String,
    pub total: usize,
    pub family_correct: usize,
    pub version_correct: usize,
    pub mpi_correct: usize,
}

impl VariantAccuracy {
    fn rate(correct: usize, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// The full `--provenance-bench` report.
#[derive(Debug, Clone, Serialize)]
pub struct ProvenanceBenchReport {
    pub seed: u64,
    pub quick: bool,
    /// Hostile binaries graded.
    pub total: usize,
    pub family_correct: usize,
    pub version_correct: usize,
    pub mpi_correct: usize,
    pub family_accuracy: f64,
    pub version_accuracy: f64,
    pub mpi_accuracy: f64,
    /// Claims calibrated at or above direct evidence (must be 0).
    pub claim_inversions: usize,
    /// Hostile twins whose prediction confidence exceeded their base
    /// binary's (must be 0).
    pub prediction_inversions: usize,
    /// (base, variant) prediction pairs compared end to end.
    pub prediction_pairs: usize,
    pub per_variant: Vec<VariantAccuracy>,
    pub min_family_accuracy: f64,
    pub pass: bool,
}

/// Count claims a report calibrates at or above direct evidence.
fn claim_inversions(r: &ProvenanceReport) -> usize {
    let mut n = 0;
    if let Some(c) = &r.compiler {
        n += usize::from(c.confidence >= 1.0);
    }
    if let Some(m) = &r.mpi_stack {
        n += usize::from(m.confidence >= 1.0);
    }
    n += r.runtime.iter().filter(|c| c.confidence >= 1.0).count();
    n += usize::from(r.confidence >= 1.0);
    n
}

/// Run the benchmark. `quick` strides the corpus (every 8th base binary)
/// and trims the end-to-end prediction pairs; the full run grades every
/// hostile twin.
pub fn provenance_bench(seed: u64, quick: bool) -> ProvenanceBenchReport {
    let sites = standard_sites(seed);
    let full = TestSetBuilder::new(seed).build(&sites);
    let stride = if quick { 8 } else { 1 };
    let mut base = TestSet::default();
    for item in full.binaries().iter().step_by(stride) {
        base.push(item.clone());
    }
    let hostile = hostile_corpus(seed, &sites, &base);

    let mut report = ProvenanceBenchReport {
        seed,
        quick,
        total: 0,
        family_correct: 0,
        version_correct: 0,
        mpi_correct: 0,
        family_accuracy: 0.0,
        version_accuracy: 0.0,
        mpi_accuracy: 0.0,
        claim_inversions: 0,
        prediction_inversions: 0,
        prediction_pairs: 0,
        per_variant: HOSTILE_VARIANTS
            .iter()
            .map(|v| VariantAccuracy {
                variant: v.tag().to_string(),
                total: 0,
                family_correct: 0,
                version_correct: 0,
                mpi_correct: 0,
            })
            .collect(),
        min_family_accuracy: MIN_FAMILY_ACCURACY,
        pass: false,
    };

    // ---- claim accuracy over the whole hostile corpus ----------------------
    for item in hostile.binaries() {
        let Ok(f) = LazyElf::parse(&item.image) else {
            continue; // unparseable twins are graded as misses below
        };
        let r = analyze(&f);
        report.total += 1;
        report.claim_inversions += claim_inversions(&r);
        let slot = report
            .per_variant
            .iter_mut()
            .find(|v| v.variant == item.variant.tag())
            .expect("per-variant slot");
        slot.total += 1;
        let family_ok = r
            .compiler
            .as_ref()
            .is_some_and(|c| c.family == item.truth_compiler.family);
        let version_ok = r
            .compiler
            .as_ref()
            .and_then(|c| c.version.as_deref())
            .is_some_and(|v| v == item.truth_compiler.version);
        let mpi_ok = r
            .mpi_stack
            .as_ref()
            .is_some_and(|m| m.implementation == item.truth_mpi);
        report.family_correct += usize::from(family_ok);
        report.version_correct += usize::from(version_ok);
        report.mpi_correct += usize::from(mpi_ok);
        slot.family_correct += usize::from(family_ok);
        slot.version_correct += usize::from(version_ok);
        slot.mpi_correct += usize::from(mpi_ok);
    }
    report.family_accuracy = VariantAccuracy::rate(report.family_correct, report.total);
    report.version_accuracy = VariantAccuracy::rate(report.version_correct, report.total);
    report.mpi_accuracy = VariantAccuracy::rate(report.mpi_correct, report.total);

    // ---- end-to-end confidence inversions ----------------------------------
    // Evaluate a sample of base binaries and their hostile twins at the
    // twins' home site: fallback evidence may lower the prediction
    // confidence (static twins degrade to Unknown) but never raise it.
    let sample = if quick { 4 } else { 16 };
    let cfg = PhaseConfig::default();
    for (i, item) in base.binaries().iter().take(sample).enumerate() {
        let home = &sites[item.compiled_at];
        let base_outcome = run_target_phase(home, Some(&item.image), None, &cfg);
        for twin in hostile.binaries().iter().filter(|h| {
            // Cross twins veto on ISA, which truncates the determinant
            // list; their confidence is not comparable to the base run.
            h.base_index == i && h.variant != BinaryVariant::Cross
        }) {
            let twin_outcome = run_target_phase(home, Some(&twin.image), None, &cfg);
            report.prediction_pairs += 1;
            if twin_outcome.prediction.confidence() > base_outcome.prediction.confidence() + 1e-9 {
                report.prediction_inversions += 1;
            }
        }
    }

    report.pass = report.family_accuracy >= report.min_family_accuracy
        && report.claim_inversions == 0
        && report.prediction_inversions == 0
        && hostile.failures == 0;
    report
}

/// Render the report as the text block `--provenance-bench` prints.
pub fn render_provenance(r: &ProvenanceBenchReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "PROVENANCE BENCH (seed {}, {} hostile binaries{})",
        r.seed,
        r.total,
        if r.quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>6} {:>8} {:>8} {:>8}",
        "variant", "n", "family", "version", "mpi"
    );
    for v in &r.per_variant {
        let _ = writeln!(
            s,
            "  {:<10} {:>6} {:>7.1}% {:>7.1}% {:>7.1}%",
            v.variant,
            v.total,
            100.0 * VariantAccuracy::rate(v.family_correct, v.total),
            100.0 * VariantAccuracy::rate(v.version_correct, v.total),
            100.0 * VariantAccuracy::rate(v.mpi_correct, v.total),
        );
    }
    let _ = writeln!(
        s,
        "  {:<10} {:>6} {:>7.1}% {:>7.1}% {:>7.1}%",
        "overall",
        r.total,
        100.0 * r.family_accuracy,
        100.0 * r.version_accuracy,
        100.0 * r.mpi_accuracy,
    );
    let _ = writeln!(
        s,
        "  confidence inversions: {} claim-level, {} prediction-level over {} pairs",
        r.claim_inversions, r.prediction_inversions, r.prediction_pairs
    );
    let _ = writeln!(
        s,
        "  gate: family accuracy >= {:.0}% and zero inversions -> {}",
        100.0 * r.min_family_accuracy,
        if r.pass { "PASS" } else { "FAIL" }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_clears_both_gates() {
        let r = provenance_bench(42, true);
        assert!(r.total > 30, "quick corpus still substantial: {}", r.total);
        assert!(
            r.family_accuracy >= MIN_FAMILY_ACCURACY,
            "family accuracy {:.3}",
            r.family_accuracy
        );
        assert_eq!(r.claim_inversions, 0);
        assert!(r.pass, "{}", render_provenance(&r));
        let text = render_provenance(&r);
        assert!(text.contains("PROVENANCE BENCH"));
        assert!(text.contains("PASS"));
    }

    #[test]
    fn provenance_chaos_never_upgrades_confidence_above_direct_evidence() {
        // The pinned inversion contract, exercised under whatever
        // FEAM_CHAOS_RATE the environment injects (CI runs this suite at
        // 0.05): every per-claim confidence stays strictly below 1.0 and
        // no hostile twin out-scores its cooperative base prediction.
        let r = provenance_bench(1234, true);
        assert_eq!(r.claim_inversions, 0, "{}", render_provenance(&r));
        assert_eq!(r.prediction_inversions, 0, "{}", render_provenance(&r));
        assert!(r.prediction_pairs > 0, "pairs actually compared");
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = provenance_bench(7, true);
        let v = serde_json::to_value(&r).unwrap();
        assert_eq!(v["pass"], r.pass);
        let text = serde_json::to_string(&v).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["total"].as_u64(), Some(r.total as u64));
    }
}
