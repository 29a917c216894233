//! Contested-verdict annotation: run the checker ensemble over a
//! finished [`Placement`] and surface member disagreement.
//!
//! This is a strictly additive post-pass over the planner's output. The
//! FEAM member is the placement's *existing* prediction read through the
//! [`feam_agree::feam_member`] adapter — never a re-evaluation — so the
//! annotated plan's predictions stay byte-identical to the bare
//! planner's modulo the attached [`Dissent`](feam_core::predict::Dissent) record and the re-ranking
//! it implies. Sites that errored (no prediction) are left untouched.

use crate::plan::{rank_cmp, Placement};
use crate::service::PredictService;
use feam_agree::{dissent_of, feam_member, Ensemble};

/// Annotate every non-errored site of `placement` with the checker
/// ensemble's dissent record:
///
/// * each site's members are the placement's own FEAM prediction plus
///   the symbol-diff and ldd-closure checkers run against that site's
///   library inventory (collected under the service's fault plan);
/// * `prediction.dissent` is filled in, which discounts
///   `prediction.confidence()` by the agreement factor;
/// * `contested` and `confidence` on the site placement are refreshed;
/// * sites are re-ranked with [`rank_cmp`] — at equal readiness a
///   contested verdict now sinks below an uncontested one;
/// * the `agree.contested` counter tallies contested verdicts.
///
/// Returns the number of contested sites. Unknown binaries (nothing
/// registered under `placement.binary_ref`) are a no-op: there is no
/// image to check.
pub fn annotate_with_ensemble(svc: &PredictService, placement: &mut Placement) -> usize {
    let Some(image) = svc.binding(&placement.binary_ref).map(|b| b.image.clone()) else {
        return 0;
    };
    let mut ensemble = Ensemble::new(svc.fault_plan());
    let mut contested = 0usize;
    for sp in &mut placement.sites {
        if sp.error.is_some() {
            continue;
        }
        let Some(site) = svc.site(&sp.site) else {
            continue;
        };
        let Some(pred) = sp.prediction.as_mut() else {
            continue;
        };
        let mut members = vec![feam_member(pred)];
        members.extend(ensemble.static_members(site, &image));
        let dissent = dissent_of(&members);
        if dissent.contested() {
            contested += 1;
        }
        pred.dissent = Some(dissent);
        sp.contested = pred.contested();
        sp.confidence = pred.confidence();
    }
    placement.sites.sort_by(rank_cmp);
    svc.recorder().count("agree.contested", contested as u64);
    contested
}
