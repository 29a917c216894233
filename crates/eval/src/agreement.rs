//! Tool-agreement study (`feam-eval --agreement`).
//!
//! Runs the compatibility-checker ensemble — the FEAM pipeline, the
//! libabigail-style symbol-diff checker and the ldd-closure checker —
//! over the §VI.A corpus *and* its hostile twins, grades every member
//! against execution ground truth, and measures inter-tool agreement
//! (raw pair agreement and Cohen's kappa per checker pair).
//!
//! Two CI gates, both zero-tolerance on regressions:
//!
//! * **accuracy** — the ensemble's synthesized verdict must be at least
//!   as accurate as FEAM alone. The extra checkers may only confirm or
//!   contest; a second opinion that makes the answer *worse* is a bug.
//! * **divergences** — the FEAM member inside the ensemble must be
//!   byte-identical (as serialized prediction) to a standalone
//!   `run_target_phase` over the same pair. The ensemble is a wrapper,
//!   never a fork, of the pipeline.
//!
//! Methodology follows the experiment driver: only (binary, site) pairs
//! with a matching MPI implementation are graded ("only at such sites is
//! there potential for successful execution"), predictions are basic
//! mode (target phase only), and ground truth is execution under FEAM's
//! own configuration plan.

use feam_agree::{cohen_kappa, ensemble_verdict, Confusion, Ensemble, MemberVerdict, MEMBER_NAMES};
use feam_core::phases::{run_target_phase, PhaseConfig};
use feam_sim::exec::run_mpi;
use feam_sim::mpi::MpiImpl;
use feam_sim::site::Site;
use feam_workloads::hostile::hostile_corpus;
use feam_workloads::sites::standard_sites;
use feam_workloads::testset::{TestSet, TestSetBuilder};
use serde::Serialize;
use std::sync::Arc;

/// One checker graded against execution ground truth.
#[derive(Debug, Clone, Serialize)]
pub struct CheckerReport {
    pub member: String,
    pub confusion: Confusion,
    /// Accuracy over decided observations.
    pub accuracy: f64,
}

/// Inter-tool agreement for one (checker, checker) pair, over the
/// observations where both committed to a verdict.
#[derive(Debug, Clone, Serialize)]
pub struct PairwiseReport {
    pub a: String,
    pub b: String,
    /// Observations where both members decided.
    pub both_decided: usize,
    /// Fraction of those where they voted identically.
    pub raw_agreement: f64,
    /// Cohen's kappa (chance-corrected agreement).
    pub kappa: f64,
}

/// The full `--agreement` report.
#[derive(Debug, Clone, Serialize)]
pub struct AgreementReport {
    pub seed: u64,
    pub quick: bool,
    /// (binary, target site) pairs graded: base corpus + hostile twins.
    pub pairs: usize,
    /// Pairs where decided members disagreed.
    pub contested: usize,
    pub checkers: Vec<CheckerReport>,
    pub pairwise: Vec<PairwiseReport>,
    /// Accuracy of FEAM alone over its decided observations.
    pub feam_accuracy: f64,
    /// Accuracy of the ensemble's synthesized (majority) verdict.
    pub ensemble_accuracy: f64,
    /// Ensemble-internal FEAM runs that differed from a standalone
    /// pipeline run (must be 0).
    pub feam_divergences: usize,
    pub pass: bool,
}

/// One (image, target) unit of the study corpus, carrying just enough
/// identity to execute ground truth.
struct StudyItem {
    label: String,
    compiled_at: usize,
    mpi: MpiImpl,
    image: Arc<Vec<u8>>,
}

fn study_corpus(seed: u64, sites: &[Site], quick: bool) -> Vec<StudyItem> {
    let full = TestSetBuilder::new(seed).build(sites);
    let stride = if quick { 6 } else { 1 };
    let mut base = TestSet::default();
    for item in full.binaries().iter().step_by(stride) {
        base.push(item.clone());
    }
    let hostile = hostile_corpus(seed, sites, &base);

    let mut items: Vec<StudyItem> = base
        .binaries()
        .iter()
        .map(|b| StudyItem {
            label: b.label().to_string(),
            compiled_at: b.compiled_at,
            mpi: b
                .binary
                .stack
                .as_ref()
                .expect("corpus binaries are MPI")
                .mpi,
            image: b.image.clone(),
        })
        .collect();
    items.extend(hostile.binaries().iter().map(|h| StudyItem {
        label: h.label().to_string(),
        compiled_at: h.compiled_at,
        mpi: h.truth_mpi,
        image: h.image.clone(),
    }));
    items
}

/// Ground truth: execute the binary under FEAM's own configuration plan
/// at `target` (the experiment driver's methodology).
fn executes(
    target: &Site,
    image: &Arc<Vec<u8>>,
    plan: &feam_core::tec::ExecutionPlan,
    cfg: &PhaseConfig,
) -> bool {
    let Some(stack_idx) = plan.stack_index else {
        return false;
    };
    let launcher = target.stacks[stack_idx].clone();
    let mut sess = plan.apply(target);
    sess.recorder = cfg.recorder.clone();
    let path = "/home/user/run/app.bin";
    sess.stage_file(path, image.clone());
    run_mpi(
        &mut sess,
        path,
        &launcher,
        cfg.nprocs,
        cfg.retry.max_attempts,
    )
    .success
}

/// Run the agreement study. `quick` strides the base corpus (every 6th
/// binary, twins included) for CI; the full run grades everything.
pub fn agreement_study(seed: u64, quick: bool) -> AgreementReport {
    let sites = standard_sites(seed);
    let items = study_corpus(seed, &sites, quick);
    let cfg = PhaseConfig::default();
    let mut ensemble = Ensemble::new(cfg.faults.clone());

    let mut confusions = vec![Confusion::default(); MEMBER_NAMES.len()];
    let mut ensemble_conf = Confusion::default();
    let mut verdict_pairs: Vec<Vec<(MemberVerdict, MemberVerdict)>> =
        vec![Vec::new(); MEMBER_NAMES.len() * (MEMBER_NAMES.len() - 1) / 2];
    let mut report = AgreementReport {
        seed,
        quick,
        pairs: 0,
        contested: 0,
        checkers: Vec::new(),
        pairwise: Vec::new(),
        feam_accuracy: 0.0,
        ensemble_accuracy: 0.0,
        feam_divergences: 0,
        pass: false,
    };

    for item in &items {
        for (site_idx, target) in sites.iter().enumerate() {
            if site_idx == item.compiled_at {
                continue;
            }
            if !target.stacks.iter().any(|s| s.stack.mpi == item.mpi) {
                continue;
            }
            let out = ensemble.run(target, &item.image, None, &cfg);
            report.pairs += 1;
            if out.dissent.contested() {
                report.contested += 1;
            }

            // The FEAM member must be the pipeline, not a fork of it.
            let standalone = run_target_phase(target, Some(&item.image), None, &cfg);
            let a = serde_json::to_string(&standalone.prediction).expect("serialize");
            let b = serde_json::to_string(&out.feam.prediction).expect("serialize");
            if a != b {
                report.feam_divergences += 1;
                eprintln!("DIVERGENCE: {} @ {}", item.label, target.name());
            }

            let ran = executes(target, &item.image, &out.feam.evaluation.plan, &cfg);
            for (i, m) in out.members.iter().enumerate() {
                confusions[i].record(m.verdict, ran);
            }
            ensemble_conf.record(ensemble_verdict(&out.members), ran);

            let mut slot = 0;
            for i in 0..out.members.len() {
                for j in i + 1..out.members.len() {
                    let (a, b) = (out.members[i].verdict, out.members[j].verdict);
                    if a.decided() && b.decided() {
                        verdict_pairs[slot].push((a, b));
                    }
                    slot += 1;
                }
            }
        }
    }

    report.checkers = MEMBER_NAMES
        .iter()
        .zip(&confusions)
        .map(|(name, c)| CheckerReport {
            member: name.to_string(),
            confusion: *c,
            accuracy: c.accuracy(),
        })
        .collect();
    let mut slot = 0;
    for (i, name_a) in MEMBER_NAMES.iter().enumerate() {
        for name_b in MEMBER_NAMES.iter().skip(i + 1) {
            let pairs = &verdict_pairs[slot];
            let raw = if pairs.is_empty() {
                1.0
            } else {
                pairs.iter().filter(|(a, b)| a == b).count() as f64 / pairs.len() as f64
            };
            report.pairwise.push(PairwiseReport {
                a: name_a.to_string(),
                b: name_b.to_string(),
                both_decided: pairs.len(),
                raw_agreement: raw,
                kappa: cohen_kappa(pairs),
            });
            slot += 1;
        }
    }
    report.feam_accuracy = confusions[0].accuracy();
    report.ensemble_accuracy = ensemble_conf.accuracy();
    report.pass =
        report.ensemble_accuracy >= report.feam_accuracy - 1e-9 && report.feam_divergences == 0;
    report
}

/// Render the report as the text block `--agreement` prints.
pub fn render_agreement(r: &AgreementReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TOOL AGREEMENT (seed {}, {} pairs{}, {} contested)",
        r.seed,
        r.pairs,
        if r.quick { ", quick" } else { "" },
        r.contested
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>5} {:>5} {:>5} {:>5} {:>8} {:>9}",
        "checker", "tp", "fp", "tn", "fn", "unknown", "accuracy"
    );
    for c in &r.checkers {
        let _ = writeln!(
            s,
            "  {:<10} {:>5} {:>5} {:>5} {:>5} {:>8} {:>8.1}%",
            c.member,
            c.confusion.tp,
            c.confusion.fp,
            c.confusion.tn,
            c.confusion.fn_,
            c.confusion.unknown,
            100.0 * c.accuracy,
        );
    }
    let _ = writeln!(
        s,
        "  {:<22} {:>8} {:>10} {:>8}",
        "pair", "n", "agreement", "kappa"
    );
    for p in &r.pairwise {
        let _ = writeln!(
            s,
            "  {:<22} {:>8} {:>9.1}% {:>8.3}",
            format!("{} / {}", p.a, p.b),
            p.both_decided,
            100.0 * p.raw_agreement,
            p.kappa,
        );
    }
    let _ = writeln!(
        s,
        "  accuracy: feam alone {:.1}%, ensemble {:.1}%; feam divergences: {}",
        100.0 * r.feam_accuracy,
        100.0 * r.ensemble_accuracy,
        r.feam_divergences,
    );
    let _ = writeln!(
        s,
        "  gate: ensemble >= feam alone and zero divergences -> {}",
        if r.pass { "PASS" } else { "FAIL" }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_clears_both_gates() {
        let r = agreement_study(42, true);
        assert!(r.pairs > 20, "quick corpus still substantial: {}", r.pairs);
        assert_eq!(r.feam_divergences, 0, "{}", render_agreement(&r));
        assert!(
            r.ensemble_accuracy >= r.feam_accuracy - 1e-9,
            "{}",
            render_agreement(&r)
        );
        assert!(r.pass, "{}", render_agreement(&r));
        // The study corpus is adversarial enough to actually disagree
        // somewhere — otherwise the contested machinery is untested.
        assert!(r.contested > 0, "{}", render_agreement(&r));
        let text = render_agreement(&r);
        assert!(text.contains("TOOL AGREEMENT"));
        assert!(text.contains("PASS"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = agreement_study(7, true);
        let v = serde_json::to_value(&r).unwrap();
        assert_eq!(v["pass"], r.pass);
        assert_eq!(v["checkers"].as_array().unwrap().len(), 3);
        assert_eq!(v["pairwise"].as_array().unwrap().len(), 3);
        assert_eq!(v["pairs"], r.pairs as u64);
        let text = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str(&text).unwrap(), v);
    }
}
