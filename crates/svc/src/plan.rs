//! Site-placement planning: "where should this binary run?"
//!
//! The service answers point queries — binary B at site S. The planner
//! answers the question schedulers actually ask: given a binary, evaluate
//! *every* candidate site and rank them by execution readiness. One
//! source-phase description fans out to per-site target evaluations that
//! run concurrently on the service's one worker pool, sharing the BDC/EDC
//! description caches and the single-flight machinery, so an all-sites
//! plan costs little more than the slowest single evaluation.
//!
//! Ranking is deterministic and total. Sites are ordered by:
//!
//! 1. **Readiness class** — ready & clean, ready but degraded, not ready
//!    & clean, not ready & degraded, errored (shed after retries, unknown
//!    site). Degraded or faulted evaluations rank below clean ones but
//!    never abort the plan: a partial placement is a first-class answer.
//! 2. **Confidence** (descending) — fraction of determinants positively
//!    decided.
//! 3. **Resolution cost** — number, then bytes, of libraries FEAM must
//!    ship to the site, then libraries left unresolved.
//! 4. **Expected launch attempts** — `1 / (1 − transient_error_rate)` of
//!    the site's queueing system, the retry model's cost of getting a job
//!    through.
//! 5. **Site name** — the final total-order tiebreak.
//!
//! [`plan_batch`] shards `(binary, site)` work units across the pool and
//! coalesces duplicate pairs planner-side: a pair shared by many requests
//! is submitted once and its response reused (on top of the service's own
//! single-flight, which catches races the planner cannot see).
//! [`plan_sequential`] is the same computation driven one blocking call
//! at a time — the oracle the benchmark compares ranking and speedup
//! against.

use crate::service::{Delivery, PredictRequest, PredictResponse, PredictService, SvcError};
use feam_core::predict::{Prediction, PredictionMode};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which sites to evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteSelection {
    /// Every site the service serves.
    All,
    /// An explicit candidate list (unknown names become per-site errors,
    /// not plan failures).
    Sites(Vec<String>),
}

/// One placement query: rank candidate sites for a registered binary.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Registered name of the binary.
    pub binary_ref: String,
    /// Candidate sites.
    pub sites: SiteSelection,
    /// Basic (target-only) or extended (source + target) prediction.
    pub mode: PredictionMode,
    /// Truncate the ranking to the top `k` sites (`None` = all).
    pub k: Option<usize>,
    /// Optional deadline, propagated to every per-site prediction. A
    /// pair shared by several plan requests carries the *latest* of
    /// their deadlines (and no deadline at all if any sharer is
    /// unbounded) — the evaluation runs as long as anyone still wants
    /// it; a pair shed at dequeue ranks as an errored site.
    pub deadline: Option<Instant>,
}

impl PlanRequest {
    /// An all-sites basic-mode plan.
    pub fn all_sites(binary_ref: &str) -> Self {
        PlanRequest {
            binary_ref: binary_ref.to_string(),
            sites: SiteSelection::All,
            mode: PredictionMode::Basic,
            k: None,
            deadline: None,
        }
    }
}

/// One ranked site in a [`Placement`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct SitePlacement {
    /// Site name.
    pub site: String,
    /// The per-determinant prediction (absent when the pair errored).
    pub prediction: Option<Prediction>,
    /// Will the binary execute here, per the model?
    pub ready: bool,
    /// Any determinant unobservable (faults, missing tooling)?
    pub degraded: bool,
    /// Did checker-ensemble members disagree on this verdict? Only ever
    /// true after [`crate::ensemble::annotate_with_ensemble`] ran; the
    /// bare planner leaves it false.
    pub contested: bool,
    /// Fraction of determinants positively decided.
    pub confidence: f64,
    /// Libraries FEAM must ship for the binary to run.
    pub resolution_libraries: usize,
    /// Their total size in bytes.
    pub resolution_bytes: u64,
    /// Missing libraries the resolution model could not source.
    pub unresolved: usize,
    /// `1 / (1 − transient_error_rate)` of the site's queueing system.
    pub expected_launch_attempts: f64,
    /// Why the pair produced no prediction (shed after retries, unknown
    /// site). Errored sites rank last but stay in the placement.
    pub error: Option<String>,
    /// Whether the service answered from its result cache.
    pub from_result_cache: bool,
    /// End-to-end latency of this pair's evaluation.
    pub latency_us: u64,
}

/// The stable per-site view behind [`Placement::fingerprint`]: ranking
/// order, verdicts and costs, with per-run measurement noise
/// (`latency_us`, `from_result_cache`) deliberately excluded so identical
/// rankings fingerprint byte-identically across runs.
#[derive(serde::Serialize)]
struct RankFingerprint {
    site: String,
    class: u8,
    contested: bool,
    prediction: Option<Prediction>,
    confidence: f64,
    resolution_libraries: usize,
    resolution_bytes: u64,
    unresolved: usize,
    expected_launch_attempts: f64,
    error: Option<String>,
}

impl SitePlacement {
    /// Readiness class, the primary sort key (lower ranks first).
    pub fn class(&self) -> u8 {
        match (self.error.is_some(), self.ready, self.degraded) {
            (true, _, _) => 4,
            (false, true, false) => 0,
            (false, true, true) => 1,
            (false, false, false) => 2,
            (false, false, true) => 3,
        }
    }

    /// One-word verdict for reports.
    pub fn verdict(&self) -> &'static str {
        match self.class() {
            0 => "ready",
            1 => "ready*",
            2 => "not-ready",
            3 => "not-ready*",
            _ => "error",
        }
    }

    fn from_response(resp: &PredictResponse, attempts: f64) -> Self {
        let (libs, bytes, unresolved) = match &resp.evaluation.resolution {
            Some(r) => (
                r.staged_count(),
                r.staged.iter().map(|(_, b)| b.len() as u64).sum(),
                r.failures().len(),
            ),
            None => (0, 0, 0),
        };
        SitePlacement {
            site: resp.target_site.to_string(),
            prediction: Some(resp.prediction.clone()),
            ready: resp.prediction.ready(),
            degraded: resp.evaluation.degraded,
            contested: resp.prediction.contested(),
            confidence: resp.evaluation.confidence,
            resolution_libraries: libs,
            resolution_bytes: bytes,
            unresolved,
            expected_launch_attempts: attempts,
            error: None,
            from_result_cache: resp.from_result_cache,
            latency_us: resp.latency_us,
        }
    }

    fn errored(site: &str, attempts: f64, error: String) -> Self {
        SitePlacement {
            site: site.to_string(),
            prediction: None,
            ready: false,
            degraded: false,
            contested: false,
            confidence: 0.0,
            resolution_libraries: 0,
            resolution_bytes: 0,
            unresolved: 0,
            expected_launch_attempts: attempts,
            error: Some(error),
            from_result_cache: false,
            latency_us: 0,
        }
    }
}

/// The deterministic total order over ranked sites.
pub fn rank_cmp(a: &SitePlacement, b: &SitePlacement) -> std::cmp::Ordering {
    a.class()
        .cmp(&b.class())
        // At equal readiness a contested verdict (ensemble members
        // disagreed) ranks below an uncontested one.
        .then_with(|| a.contested.cmp(&b.contested))
        .then_with(|| b.confidence.total_cmp(&a.confidence))
        .then_with(|| a.resolution_libraries.cmp(&b.resolution_libraries))
        .then_with(|| a.resolution_bytes.cmp(&b.resolution_bytes))
        .then_with(|| a.unresolved.cmp(&b.unresolved))
        .then_with(|| {
            a.expected_launch_attempts
                .total_cmp(&b.expected_launch_attempts)
        })
        .then_with(|| a.site.cmp(&b.site))
}

/// A ranked placement for one binary.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Placement {
    /// Registered name of the binary.
    pub binary_ref: String,
    /// Prediction mode the plan ran under.
    pub mode: PredictionMode,
    /// Sites in rank order (best first), truncated to the request's `k`.
    pub sites: Vec<SitePlacement>,
    /// Candidate sites considered before truncation.
    pub candidates: usize,
    /// How many candidates evaluated degraded.
    pub degraded_sites: usize,
    /// How many candidates errored (shed after retries, unknown site).
    pub error_sites: usize,
}

impl Placement {
    /// The top-ranked site, if any candidate produced a prediction.
    pub fn best(&self) -> Option<&SitePlacement> {
        self.sites.first().filter(|s| s.error.is_none())
    }

    /// Stable fingerprint of the ranking (order + verdicts + costs;
    /// excludes latency and cache provenance). Two runs over the same
    /// inputs must produce byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        let view: Vec<RankFingerprint> = self
            .sites
            .iter()
            .map(|s| RankFingerprint {
                site: s.site.clone(),
                class: s.class(),
                contested: s.contested,
                prediction: s.prediction.clone(),
                confidence: s.confidence,
                resolution_libraries: s.resolution_libraries,
                resolution_bytes: s.resolution_bytes,
                unresolved: s.unresolved,
                expected_launch_attempts: s.expected_launch_attempts,
                error: s.error.clone(),
            })
            .collect();
        format!(
            "{}|{}|{}",
            self.binary_ref,
            self.candidates,
            serde_json::to_string(&view).expect("ranking serializes")
        )
    }
}

/// `(binary, site, mode)` — the planner-side coalescing key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PairKey {
    binary_ref: String,
    site: String,
    extended: bool,
}

/// How a unique pair's evaluation ended.
enum PairOutcome {
    Done(Box<PredictResponse>),
    Failed(String),
}

/// How often a shed submission is retried before the pair is declared
/// errored. Workers drain the queue concurrently, so a yield-then-sleep
/// loop normally gets through; an unstarted or wedged service exhausts
/// the budget in well under a second instead of deadlocking the plan.
const SHED_RETRIES: u32 = 400;

fn submit_with_retry(svc: &PredictService, req: &PredictRequest) -> Result<Delivery, SvcError> {
    submit_traced_with_retry(svc, req, feam_obs::TraceCtx::NONE)
}

fn submit_traced_with_retry(
    svc: &PredictService,
    req: &PredictRequest,
    parent: feam_obs::TraceCtx,
) -> Result<Delivery, SvcError> {
    let mut attempt = 0u32;
    loop {
        match svc.submit_traced(req, parent) {
            Err(e) if e.retryable() && attempt < SHED_RETRIES => {
                attempt += 1;
                if attempt < 8 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            other => return other,
        }
    }
}

fn candidate_sites(svc: &PredictService, sel: &SiteSelection) -> Vec<String> {
    match sel {
        SiteSelection::All => svc.site_names(),
        SiteSelection::Sites(list) => list.clone(),
    }
}

/// Plan a batch of placement queries concurrently.
///
/// All `(binary, site, mode)` pairs across the batch are deduplicated —
/// a pair shared by several requests is submitted once and its response
/// reused — then fanned out through non-blocking submissions so the
/// worker pool evaluates them in parallel, and drained in deterministic
/// pair order. A request whose `binary_ref` is unregistered yields
/// `Err(UnknownBinary)` for that element only; per-site failures become
/// errored entries ranked last.
pub fn plan_batch(svc: &PredictService, reqs: &[PlanRequest]) -> Vec<Result<Placement, SvcError>> {
    let rec = svc.recorder().clone();
    let _batch_span = rec.span("plan.request");

    // Collect the unique pairs in first-seen order (deterministic).
    let known: std::collections::HashSet<String> = svc.binary_names().into_iter().collect();
    let mut pair_order: Vec<PairKey> = Vec::new();
    // A shared pair evaluates under the most generous deadline among its
    // sharers: `Some(None)` (unbounded sharer) beats any instant.
    let mut deadlines: HashMap<PairKey, Option<Instant>> = HashMap::new();
    let mut coalesced = 0u64;
    for req in reqs {
        if !known.contains(&req.binary_ref) {
            continue;
        }
        for site in candidate_sites(svc, &req.sites) {
            let key = PairKey {
                binary_ref: req.binary_ref.clone(),
                site,
                extended: req.mode == PredictionMode::Extended,
            };
            match deadlines.entry(key.clone()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(req.deadline);
                    pair_order.push(key);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let merged = match (*e.get(), req.deadline) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                    e.insert(merged);
                    coalesced += 1;
                }
            }
        }
    }
    rec.count("plan.pairs.coalesced", coalesced);

    // Fan out: one non-blocking submission per unique pair. The span
    // guard rides in the pending list so `plan.site` covers submit
    // through delivery.
    let mut pending: Vec<(PairKey, Result<Delivery, SvcError>, feam_obs::Span)> =
        Vec::with_capacity(pair_order.len());
    for key in &pair_order {
        let span = rec.span("plan.site");
        let preq = PredictRequest {
            binary_ref: key.binary_ref.clone(),
            target_site: key.site.clone(),
            mode: if key.extended {
                PredictionMode::Extended
            } else {
                PredictionMode::Basic
            },
            deadline: deadlines.get(key).copied().flatten(),
        };
        // The service request joins the plan's trace, parented on this
        // pair's `plan.site` span, so one trace id covers the whole plan
        // through the pool-side evaluations.
        let delivery = submit_traced_with_retry(svc, &preq, span.ctx());
        pending.push((key.clone(), delivery, span));
    }
    rec.count("plan.pairs.evaluated", pair_order.len() as u64);

    // Drain in pair order; workers complete in whatever order they like.
    let mut outcomes: HashMap<PairKey, PairOutcome> = HashMap::with_capacity(pending.len());
    let mut degraded = 0u64;
    for (key, delivery, span) in pending {
        let outcome = match delivery {
            Ok(Delivery::Ready(resp)) => PairOutcome::Done(Box::new(resp)),
            Ok(Delivery::Pending(rx)) => match rx.recv() {
                Ok(Ok(resp)) => PairOutcome::Done(Box::new(resp)),
                Ok(Err(e)) => PairOutcome::Failed(e.to_string()),
                Err(_) => PairOutcome::Failed(SvcError::ShuttingDown.to_string()),
            },
            Err(e) => PairOutcome::Failed(e.to_string()),
        };
        if let PairOutcome::Done(r) = &outcome {
            if r.evaluation.degraded {
                degraded += 1;
            }
        }
        drop(span);
        outcomes.insert(key, outcome);
    }
    rec.count("plan.pairs.degraded", degraded);

    // Assemble each request's ranking from the shared outcomes.
    reqs.iter()
        .map(|req| assemble(svc, req, &known, &outcomes))
        .collect()
}

/// Plan a single placement query (batch of one).
pub fn plan(svc: &PredictService, req: &PlanRequest) -> Result<Placement, SvcError> {
    plan_batch(svc, std::slice::from_ref(req))
        .pop()
        .expect("one request yields one placement")
}

/// The sequential oracle: the identical computation driven one blocking
/// prediction at a time, in candidate order. The benchmark pins that the
/// parallel planner's ranking is byte-identical to this and measures the
/// speedup against it.
pub fn plan_sequential(svc: &PredictService, req: &PlanRequest) -> Result<Placement, SvcError> {
    let known: std::collections::HashSet<String> = svc.binary_names().into_iter().collect();
    if !known.contains(&req.binary_ref) {
        return Err(SvcError::UnknownBinary(req.binary_ref.clone()));
    }
    let mut outcomes: HashMap<PairKey, PairOutcome> = HashMap::new();
    for site in candidate_sites(svc, &req.sites) {
        let key = PairKey {
            binary_ref: req.binary_ref.clone(),
            site: site.clone(),
            extended: req.mode == PredictionMode::Extended,
        };
        if outcomes.contains_key(&key) {
            continue;
        }
        let preq = PredictRequest {
            binary_ref: req.binary_ref.clone(),
            target_site: site,
            mode: req.mode,
            deadline: req.deadline,
        };
        let outcome = match submit_with_retry(svc, &preq) {
            Ok(Delivery::Ready(resp)) => PairOutcome::Done(Box::new(resp)),
            Ok(Delivery::Pending(rx)) => match rx.recv() {
                Ok(Ok(resp)) => PairOutcome::Done(Box::new(resp)),
                Ok(Err(e)) => PairOutcome::Failed(e.to_string()),
                Err(_) => PairOutcome::Failed(SvcError::ShuttingDown.to_string()),
            },
            Err(e) => PairOutcome::Failed(e.to_string()),
        };
        outcomes.insert(key, outcome);
    }
    assemble(svc, req, &known, &outcomes)
}

fn assemble(
    svc: &PredictService,
    req: &PlanRequest,
    known: &std::collections::HashSet<String>,
    outcomes: &HashMap<PairKey, PairOutcome>,
) -> Result<Placement, SvcError> {
    if !known.contains(&req.binary_ref) {
        return Err(SvcError::UnknownBinary(req.binary_ref.clone()));
    }
    let mut sites: Vec<SitePlacement> = Vec::new();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for site in candidate_sites(svc, &req.sites) {
        if !seen.insert(site.clone()) {
            continue;
        }
        // Unknown candidate sites have no transient rate; rank them with
        // the worst possible launch expectation.
        let attempts = match svc.site_transient_rate(&site) {
            Some(rate) if rate < 1.0 => 1.0 / (1.0 - rate),
            _ => f64::INFINITY,
        };
        let key = PairKey {
            binary_ref: req.binary_ref.clone(),
            site: site.clone(),
            extended: req.mode == PredictionMode::Extended,
        };
        let placement = match outcomes.get(&key) {
            Some(PairOutcome::Done(resp)) => SitePlacement::from_response(resp, attempts),
            Some(PairOutcome::Failed(e)) => SitePlacement::errored(&site, attempts, e.clone()),
            None => SitePlacement::errored(
                &site,
                attempts,
                SvcError::UnknownSite(site.clone()).to_string(),
            ),
        };
        sites.push(placement);
    }
    sites.sort_by(rank_cmp);
    let candidates = sites.len();
    let degraded_sites = sites
        .iter()
        .filter(|s| s.error.is_none() && s.degraded)
        .count();
    let error_sites = sites.iter().filter(|s| s.error.is_some()).count();
    if let Some(k) = req.k {
        sites.truncate(k);
    }
    Ok(Placement {
        binary_ref: req.binary_ref.clone(),
        mode: req.mode,
        sites,
        candidates,
        degraded_sites,
        error_sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stub(site: &str, class_inputs: (bool, bool), confidence: f64) -> SitePlacement {
        let (ready, degraded) = class_inputs;
        SitePlacement {
            site: site.to_string(),
            prediction: None,
            ready,
            degraded,
            contested: false,
            confidence,
            resolution_libraries: 0,
            resolution_bytes: 0,
            unresolved: 0,
            expected_launch_attempts: 1.0,
            error: None,
            from_result_cache: false,
            latency_us: 0,
        }
    }

    #[test]
    fn rank_orders_classes_then_confidence_then_cost() {
        let ready_clean = stub("a", (true, false), 0.75);
        let ready_degraded = stub("b", (true, true), 1.0);
        let not_ready = stub("c", (false, false), 1.0);
        let mut errored = stub("d", (false, false), 1.0);
        errored.error = Some("shed".into());

        let mut v = [
            errored.clone(),
            not_ready.clone(),
            ready_degraded.clone(),
            ready_clean.clone(),
        ];
        v.sort_by(rank_cmp);
        let order: Vec<&str> = v.iter().map(|s| s.site.as_str()).collect();
        assert_eq!(order, ["a", "b", "c", "d"], "class dominates confidence");

        // Within a class: higher confidence first, then cheaper resolution,
        // then fewer expected launch attempts, then name.
        let mut hi = stub("x", (true, false), 1.0);
        let lo = stub("y", (true, false), 0.5);
        let mut v = [lo.clone(), hi.clone()];
        v.sort_by(rank_cmp);
        assert_eq!(v[0].site, "x");

        hi.confidence = 0.5;
        hi.resolution_libraries = 2;
        let mut v = [hi.clone(), lo.clone()];
        v.sort_by(rank_cmp);
        assert_eq!(v[0].site, "y", "fewer libraries to ship ranks first");

        let mut slow = stub("y", (true, false), 0.5);
        slow.expected_launch_attempts = 2.0;
        let fast = stub("z", (true, false), 0.5);
        let mut v = [slow, fast];
        v.sort_by(rank_cmp);
        assert_eq!(v[0].site, "z", "fewer expected launch attempts first");
    }

    #[test]
    fn contested_ranks_below_uncontested_at_equal_readiness() {
        // Same class, same confidence: the contested verdict loses.
        let clean = stub("b-clean", (true, false), 0.8);
        let mut contested = stub("a-contested", (true, false), 0.8);
        contested.contested = true;
        let mut v = [contested.clone(), clean.clone()];
        v.sort_by(rank_cmp);
        assert_eq!(v[0].site, "b-clean", "contested loses the tiebreak");

        // But contested never outranks class: a contested ready site
        // still beats an uncontested not-ready one.
        let not_ready = stub("c", (false, false), 1.0);
        let mut v = [not_ready, contested];
        v.sort_by(rank_cmp);
        assert_eq!(v[0].site, "a-contested", "class still dominates");
    }

    #[test]
    fn verdict_labels_track_class() {
        assert_eq!(stub("a", (true, false), 1.0).verdict(), "ready");
        assert_eq!(stub("a", (true, true), 1.0).verdict(), "ready*");
        assert_eq!(stub("a", (false, false), 1.0).verdict(), "not-ready");
        assert_eq!(stub("a", (false, true), 1.0).verdict(), "not-ready*");
        let mut e = stub("a", (false, false), 1.0);
        e.error = Some("shed".into());
        assert_eq!(e.verdict(), "error");
    }
}
