//! Agreement statistics: pair agreement, Cohen's kappa, confusion
//! matrices and the majority synthesis rule.
//!
//! Unknown verdicts are abstentions throughout: a member that could not
//! observe its evidence neither agrees nor disagrees with anyone, and
//! never enters a confusion matrix. This is what keeps fault-degraded
//! members from poisoning the study.

use crate::checkers::{MemberOutcome, MemberVerdict};

/// Per-checker confusion matrix against execution ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct Confusion {
    /// Predicted ready, actually ran.
    pub tp: u32,
    /// Predicted ready, actually failed.
    pub fp: u32,
    /// Predicted not-ready, actually failed.
    pub tn: u32,
    /// Predicted not-ready, actually ran.
    pub fn_: u32,
    /// Abstained (`unknown`) — excluded from accuracy.
    pub unknown: u32,
}

impl Confusion {
    /// Record one observation.
    pub fn record(&mut self, verdict: MemberVerdict, ran: bool) {
        match (verdict, ran) {
            (MemberVerdict::Ready, true) => self.tp += 1,
            (MemberVerdict::Ready, false) => self.fp += 1,
            (MemberVerdict::NotReady, false) => self.tn += 1,
            (MemberVerdict::NotReady, true) => self.fn_ += 1,
            (MemberVerdict::Unknown, _) => self.unknown += 1,
        }
    }

    /// Observations where the checker committed to a verdict.
    pub fn decided(&self) -> u32 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Accuracy over decided observations; 1.0 when nothing was decided
    /// (an always-abstaining checker is vacuously never wrong).
    pub fn accuracy(&self) -> f64 {
        let d = self.decided();
        if d == 0 {
            return 1.0;
        }
        (self.tp + self.tn) as f64 / d as f64
    }
}

/// Cohen's kappa over paired verdicts from two checkers. Pairs where
/// either side abstained must be filtered out by the caller (pass only
/// decided pairs). Degenerate marginals (expected agreement ≈ 1, i.e.
/// both checkers constant) collapse the denominator; we report 1.0 when
/// the observed agreement is also perfect and 0.0 otherwise, matching
/// the usual convention.
pub fn cohen_kappa(pairs: &[(MemberVerdict, MemberVerdict)]) -> f64 {
    let n = pairs.len();
    if n == 0 {
        return 1.0;
    }
    let nf = n as f64;
    let po = pairs.iter().filter(|(a, b)| a == b).count() as f64 / nf;
    // Two-category marginals (Ready vs NotReady).
    let a_ready = pairs
        .iter()
        .filter(|(a, _)| *a == MemberVerdict::Ready)
        .count() as f64
        / nf;
    let b_ready = pairs
        .iter()
        .filter(|(_, b)| *b == MemberVerdict::Ready)
        .count() as f64
        / nf;
    let pe = a_ready * b_ready + (1.0 - a_ready) * (1.0 - b_ready);
    if (1.0 - pe).abs() < 1e-12 {
        return if (1.0 - po).abs() < 1e-12 { 1.0 } else { 0.0 };
    }
    (po - pe) / (1.0 - pe)
}

/// Raw pairwise agreement among one pair's member outcomes: the fraction
/// of decided member pairs that voted identically. 1.0 when fewer than
/// two members decided (no pair exists to disagree).
pub fn majority_agreement(members: &[MemberOutcome]) -> f64 {
    let decided: Vec<_> = members.iter().filter(|m| m.verdict.decided()).collect();
    let k = decided.len();
    if k < 2 {
        return 1.0;
    }
    let total = (k * (k - 1) / 2) as f64;
    let mut agree = 0usize;
    for i in 0..k {
        for j in i + 1..k {
            if decided[i].verdict == decided[j].verdict {
                agree += 1;
            }
        }
    }
    agree as f64 / total
}

/// The ensemble's synthesized verdict: majority vote among decided
/// members; an exact tie falls back to the first decided member in
/// listing order (FEAM leads [`crate::MEMBER_NAMES`], so FEAM breaks
/// ties); all-abstain → `Unknown`.
pub fn ensemble_verdict(members: &[MemberOutcome]) -> MemberVerdict {
    let ready = members
        .iter()
        .filter(|m| m.verdict == MemberVerdict::Ready)
        .count();
    let not_ready = members
        .iter()
        .filter(|m| m.verdict == MemberVerdict::NotReady)
        .count();
    if ready == 0 && not_ready == 0 {
        return MemberVerdict::Unknown;
    }
    match ready.cmp(&not_ready) {
        std::cmp::Ordering::Greater => MemberVerdict::Ready,
        std::cmp::Ordering::Less => MemberVerdict::NotReady,
        std::cmp::Ordering::Equal => members
            .iter()
            .find(|m| m.verdict.decided())
            .map(|m| m.verdict)
            .unwrap_or(MemberVerdict::Unknown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(member: &'static str, verdict: MemberVerdict) -> MemberOutcome {
        MemberOutcome {
            member,
            verdict,
            detail: String::new(),
            fault_observed: false,
        }
    }

    #[test]
    fn kappa_degenerate_and_mixed() {
        use MemberVerdict::*;
        assert_eq!(cohen_kappa(&[]), 1.0);
        // Both constant-ready: pe = 1, po = 1 → 1.0.
        assert_eq!(cohen_kappa(&[(Ready, Ready), (Ready, Ready)]), 1.0);
        // Perfect mixed agreement → 1.0.
        let k = cohen_kappa(&[(Ready, Ready), (NotReady, NotReady)]);
        assert!((k - 1.0).abs() < 1e-12, "{k}");
        // Independence-level agreement → ~0.
        let k = cohen_kappa(&[
            (Ready, Ready),
            (Ready, NotReady),
            (NotReady, Ready),
            (NotReady, NotReady),
        ]);
        assert!(k.abs() < 1e-12, "{k}");
    }

    #[test]
    fn majority_and_synthesis() {
        use MemberVerdict::*;
        let all = [m("feam", Ready), m("symdiff", Ready), m("closure", Ready)];
        assert_eq!(majority_agreement(&all), 1.0);
        assert_eq!(ensemble_verdict(&all), Ready);

        let split = [
            m("feam", NotReady),
            m("symdiff", Ready),
            m("closure", Ready),
        ];
        assert!((majority_agreement(&split) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ensemble_verdict(&split), Ready);

        // Tie → first decided member (FEAM) wins.
        let tie = [
            m("feam", NotReady),
            m("symdiff", Ready),
            m("closure", Unknown),
        ];
        assert_eq!(ensemble_verdict(&tie), NotReady);

        // Abstentions don't create disagreement.
        let lone = [
            m("feam", Unknown),
            m("symdiff", Ready),
            m("closure", Unknown),
        ];
        assert_eq!(majority_agreement(&lone), 1.0);
        assert_eq!(ensemble_verdict(&lone), Ready);

        let none = [
            m("feam", Unknown),
            m("symdiff", Unknown),
            m("closure", Unknown),
        ];
        assert_eq!(ensemble_verdict(&none), Unknown);
    }

    #[test]
    fn confusion_accuracy() {
        let mut c = Confusion::default();
        c.record(MemberVerdict::Ready, true);
        c.record(MemberVerdict::Ready, false);
        c.record(MemberVerdict::NotReady, false);
        c.record(MemberVerdict::Unknown, true);
        assert_eq!(c.decided(), 3);
        assert!((c.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.unknown, 1);
    }
}
