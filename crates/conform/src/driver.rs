//! Differential driver: run the real pipeline against generated universes
//! under every mode crossing and check it against the reference oracle
//! plus the metamorphic invariants.
//!
//! Crossings per (binary, site, mode ∈ {basic, extended}):
//!
//! 1. **Fault-free, caches off** — must equal the oracle's
//!    [`Expectation`] exactly (verdicts, readiness, degradation,
//!    confidence, plan stack, resolved-library set).
//! 2. **Fault-free, caches on** — fingerprint must equal crossing 1
//!    byte-for-byte (caches are speed, never semantics).
//! 3. **Chaos, caches off** — metamorphic invariants: when telemetry
//!    shows zero injected faults the outcome must equal crossing 1; when
//!    faults did fire, the Isa and CLibrary verdicts may only move to
//!    `unknown`, never flip between compatible and incompatible. (The
//!    stack determinants are *allowed* to flip: an injected description
//!    fault can hide a missing library or reorder stack discovery, which
//!    is exactly the real-world noise the paper's retry machinery
//!    tolerates but cannot erase.)
//! 4. **Chaos, caches on** — fingerprint must equal crossing 3 under the
//!    identical fault plan (a poisoned cache would diverge here).
//!
//! Per binary, a fifth crossing drives `feam-svc`: a ranked all-sites
//! [`plan`](feam_svc::plan) must agree with its own point predictions,
//! the point predictions must agree with the oracle, and the ranking must
//! be sorted under [`feam_svc::plan::rank_cmp`].
//!
//! Per (binary, site), a checker-ensemble crossing runs `feam-agree`
//! fault-free: the FEAM member's pipeline outcome must fingerprint
//! byte-identical to crossing 1 (the ensemble wraps the pipeline, never
//! forks it), both static checkers must match their straight-line oracle
//! mirrors, and the dissent bookkeeping must be consistent — so any
//! checker disagreement is exactly where the oracle's evidence model
//! predicts it.

use std::collections::HashMap;
use std::sync::Arc;

use feam_core::phases::{run_source_phase, run_target_phase, PhaseConfig, TargetOutcome};
use feam_core::predict::Prediction;
use feam_core::resolve::LibraryResolution;
use feam_core::tec::TargetEvaluation;
use feam_core::PhaseCaches;
use feam_core::PredictionMode;
use feam_sim::faults::FaultPlan;
use feam_sim::rng;
use feam_svc::plan::{plan, rank_cmp};
use feam_svc::{PlanRequest, PredictRequest, PredictService, RegisteredBinary, ServiceConfig};

use crate::oracle::{self, Expectation, MetaCache, OracleMutation};
use crate::shrink::ShrunkRepro;
use crate::universe::{self, UniverseSpec};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Universes to generate and check.
    pub universes: usize,
    /// Sweep seed; universe `i` uses `hash_parts(seed, ["universe", i])`.
    pub seed: u64,
    /// Generate 2×2 universes instead of 3×3.
    pub quick: bool,
    /// Per-chokepoint fault rate for the chaos crossings.
    pub chaos_rate: f64,
    /// Test-only oracle mutation (proves the harness catches divergence).
    pub mutation: Option<OracleMutation>,
    /// Shrink the first diverging universe to a minimal repro.
    pub shrink: bool,
    /// Stop the sweep after this many divergences.
    pub max_divergences: usize,
}

impl Default for ConformConfig {
    fn default() -> Self {
        ConformConfig {
            universes: 50,
            seed: 0xC04F04,
            quick: false,
            chaos_rate: 0.25,
            mutation: None,
            shrink: true,
            max_divergences: 8,
        }
    }
}

/// One observed disagreement between the pipeline and the model.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the universe the divergence appeared in.
    pub universe_seed: u64,
    /// Which crossing failed (`oracle-basic`, `cache-equivalence`, ...).
    pub kind: String,
    pub binary: String,
    pub site: String,
    pub detail: String,
}

impl Divergence {
    pub fn render(&self) -> String {
        format!(
            "[0x{:x}] {} {}@{}: {}",
            self.universe_seed, self.kind, self.binary, self.site, self.detail
        )
    }
}

/// Result of checking one universe.
#[derive(Debug, Default)]
pub struct UniverseCheck {
    pub divergences: Vec<Divergence>,
    /// (binary, site) pairs evaluated.
    pub pairs: usize,
    /// Pipeline evaluations executed (all crossings).
    pub runs: usize,
}

/// Full sweep report.
#[derive(Debug, Default)]
pub struct ConformReport {
    pub universes: usize,
    pub pairs: usize,
    pub runs: usize,
    pub divergences: Vec<Divergence>,
    pub shrunk: Option<ShrunkRepro>,
}

impl ConformReport {
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "universes": self.universes,
            "pairs": self.pairs,
            "runs": self.runs,
            "divergences": self.divergences.iter().map(|d| {
                serde_json::json!({
                    "universe_seed": format!("0x{:x}", d.universe_seed),
                    "kind": d.kind,
                    "binary": d.binary,
                    "site": d.site,
                    "detail": d.detail,
                })
            }).collect::<Vec<_>>(),
            "shrunk": self.shrunk.as_ref().map(|s| serde_json::json!({
                "replay": s.replay,
                "sites": s.spec.sites.len(),
                "binaries": s.spec.live_binaries().len(),
                "summary": s.spec.summary(),
            })),
            "ok": self.ok(),
        })
    }
}

/// The probe-synthesis seed shared by the pipeline's `PhaseConfig`, the
/// service and the oracle — all three must sample the same world.
const PHASE_SEED: u64 = 0xFEA4;

fn base_phase_cfg(caches: Option<Arc<PhaseCaches>>) -> PhaseConfig {
    PhaseConfig {
        seed: PHASE_SEED,
        // Explicit: the default plan is env-driven (`FEAM_FAULTS`).
        faults: Arc::new(FaultPlan::none()),
        caches,
        recorder: feam_obs::Recorder::disabled(),
        ..PhaseConfig::default()
    }
}

/// Project the pipeline's answer onto the oracle's [`Expectation`] shape.
fn realized(pred: &Prediction, eval: &TargetEvaluation) -> Expectation {
    let verdicts: Vec<(String, String)> = pred
        .verdicts
        .iter()
        .map(|v| {
            (
                v.determinant.name().to_string(),
                v.verdict.label().to_string(),
            )
        })
        .collect();
    let mut resolved: Vec<String> = eval
        .resolution
        .as_ref()
        .map(|r| {
            r.outcomes
                .iter()
                .filter_map(|o| match o {
                    LibraryResolution::Staged { soname, .. } => Some(soname.clone()),
                    LibraryResolution::Failed { .. } => None,
                })
                .collect()
        })
        .unwrap_or_default();
    resolved.sort();
    Expectation {
        verdicts,
        ready: pred.ready(),
        degraded: eval.degraded,
        confidence: eval.confidence,
        plan_stack: eval.plan.stack_ident.clone(),
        resolved,
    }
}

/// A canonical rendering of everything semantic in a [`TargetOutcome`]
/// (everything except timings and telemetry), used for the byte-for-byte
/// equivalence crossings.
fn fingerprint(out: &TargetOutcome) -> String {
    let mut s = String::new();
    for v in &out.prediction.verdicts {
        s.push_str(&format!(
            "v:{}={}:{};",
            v.determinant.name(),
            v.verdict.label(),
            v.detail
        ));
    }
    s.push_str(&format!(
        "|mode={:?} ready={} degraded={} conf={}",
        out.prediction.mode,
        out.prediction.ready(),
        out.evaluation.degraded,
        out.evaluation.confidence,
    ));
    let p = &out.evaluation.plan;
    s.push_str(&format!(
        "|plan={:?}/{:?}/{:?}/{:?}/{:?}",
        p.stack_index,
        p.stack_ident,
        p.launch_command,
        p.extra_ld_dirs,
        p.staged
            .iter()
            .map(|(path, _)| path.clone())
            .collect::<Vec<_>>(),
    ));
    if let Some(r) = &out.evaluation.resolution {
        for o in &r.outcomes {
            match o {
                LibraryResolution::Staged {
                    soname,
                    staged_path,
                } => s.push_str(&format!("|rs:{soname}:{staged_path}")),
                LibraryResolution::Failed { soname, reason } => {
                    s.push_str(&format!("|rf:{soname}:{reason}"))
                }
            }
        }
    }
    for t in &out.evaluation.stack_tests {
        s.push_str(&format!(
            "|t:{}:{}:{:?}",
            t.stack_ident, t.native_ok, t.transported_ok
        ));
    }
    s.push_str(&format!(
        "|env:{}:{:?}:{:?}:{:?}:{:?}",
        out.environment.isa,
        out.environment.c_library.as_ref().map(|v| v.render()),
        out.environment.unobserved,
        out.environment
            .available_stacks
            .iter()
            .map(|d| d.ident())
            .collect::<Vec<_>>(),
        out.environment.loaded_stack,
    ));
    s
}

fn verdict_label<'a>(e: &'a Expectation, name: &str) -> Option<&'a str> {
    e.verdicts
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, l)| l.as_str())
}

fn diff(expected: &Expectation, got: &Expectation) -> String {
    format!("expected {expected:?}, pipeline produced {got:?}")
}

/// Sum of injected-fault counters in a telemetry snapshot.
fn injected_faults(t: &feam_obs::TelemetrySnapshot) -> u64 {
    t.counters.get("faults.injected").copied().unwrap_or(0)
}

/// Check one universe under every crossing.
pub fn check_universe(spec: &UniverseSpec, cfg: &ConformConfig) -> UniverseCheck {
    let uni = universe::materialize(spec);
    let mut check = UniverseCheck::default();
    let mut meta_caches: HashMap<String, MetaCache> = HashMap::new();
    // The ensemble crossing: real checkers (left) and their oracle
    // mirrors (right), both fault-free, inventories memoized per site.
    let mut ensemble = feam_agree::Ensemble::new(Arc::new(FaultPlan::none()));
    let mut mirror_invs: HashMap<String, oracle::CheckerInventory> = HashMap::new();
    // Oracle expectations per (binary, site, mode), reused by the service
    // crossing.
    let mut expectations: HashMap<(String, String, &'static str), Expectation> = HashMap::new();

    let diverge = |check: &mut UniverseCheck, kind: &str, bin: &str, site: &str, detail: String| {
        check.divergences.push(Divergence {
            universe_seed: spec.seed,
            kind: kind.to_string(),
            binary: bin.to_string(),
            site: site.to_string(),
            detail,
        });
    };

    for ub in &uni.binaries {
        let bin = &ub.spec.name;
        // The source bundle is produced once, fault-free and cache-off, at
        // the binary's home site, then consumed as *data* by both sides of
        // every extended crossing.
        let bundle = uni
            .site(&ub.spec.home_site)
            .and_then(|home| run_source_phase(home, &ub.image, &base_phase_cfg(None)).ok());

        for site in &uni.sites {
            check.pairs += 1;
            let modes: Vec<(PredictionMode, Option<&feam_core::SourceBundle>)> = match &bundle {
                Some(b) => vec![
                    (PredictionMode::Basic, None),
                    (PredictionMode::Extended, Some(b)),
                ],
                None => vec![(PredictionMode::Basic, None)],
            };
            for (mode, b) in modes {
                let mode_tag = match mode {
                    PredictionMode::Basic => "basic",
                    PredictionMode::Extended => "extended",
                };

                // Crossing 1: fault-free, caches off, vs the oracle.
                let out_base = run_target_phase(site, Some(&ub.image), b, &base_phase_cfg(None));
                check.runs += 1;
                let cache = meta_caches.entry(site.name().to_string()).or_default();
                let expected = oracle::expect(site, &ub.image, b, PHASE_SEED, cfg.mutation, cache);
                let got = realized(&out_base.prediction, &out_base.evaluation);
                if got != expected {
                    diverge(
                        &mut check,
                        &format!("oracle-{mode_tag}"),
                        bin,
                        site.name(),
                        diff(&expected, &got),
                    );
                }
                expectations.insert((bin.clone(), site.name().to_string(), mode_tag), expected);

                // Crossing 2: fault-free, caches on (fresh, so the first
                // evaluation exercises fill + the internal double-use paths).
                let caches = Arc::new(PhaseCaches::new(0));
                let out_cached =
                    run_target_phase(site, Some(&ub.image), b, &base_phase_cfg(Some(caches)));
                check.runs += 1;
                let fp_base = fingerprint(&out_base);
                if fingerprint(&out_cached) != fp_base {
                    diverge(
                        &mut check,
                        &format!("cache-equivalence-{mode_tag}"),
                        bin,
                        site.name(),
                        format!(
                            "caches changed the outcome: off={fp_base} on={}",
                            fingerprint(&out_cached)
                        ),
                    );
                }

                // Ensemble crossing (basic mode — the static checkers
                // never consume a bundle): FEAM-member identity, checker
                // verdicts vs their mirrors, dissent bookkeeping.
                if mode == PredictionMode::Basic {
                    let ens = ensemble.run(site, &ub.image, None, &base_phase_cfg(None));
                    check.runs += 1;
                    if fingerprint(&ens.feam) != fp_base {
                        diverge(
                            &mut check,
                            "ensemble-feam-identity",
                            bin,
                            site.name(),
                            format!(
                                "ensemble's internal FEAM run differs from the standalone \
                                 pipeline: standalone={fp_base} ensemble={}",
                                fingerprint(&ens.feam)
                            ),
                        );
                    }
                    let mirror = mirror_invs
                        .entry(site.name().to_string())
                        .or_insert_with(|| oracle::checker_inventory(site));
                    for (idx, expected) in [
                        (1, oracle::expect_symdiff(site, &ub.image, mirror)),
                        (2, oracle::expect_closure(site, &ub.image, mirror)),
                    ] {
                        let m = &ens.members[idx];
                        if m.verdict.label() != expected {
                            diverge(
                                &mut check,
                                &format!("ensemble-{}", m.member),
                                bin,
                                site.name(),
                                format!(
                                    "{} verdict {} but the oracle mirror expects {expected} \
                                     ({})",
                                    m.member,
                                    m.verdict.label(),
                                    m.detail
                                ),
                            );
                        }
                    }
                    let decided = ens.members.iter().filter(|m| m.verdict.decided()).count() as u32;
                    if ens.dissent.decided != decided
                        || ens.dissent.total_pairs != decided * decided.saturating_sub(1) / 2
                        || ens.dissent.contested() != (ens.dissent.disagreeing_pairs > 0)
                    {
                        diverge(
                            &mut check,
                            "ensemble-dissent",
                            bin,
                            site.name(),
                            format!(
                                "dissent bookkeeping inconsistent with member verdicts: \
                                 {:?} vs {} decided members",
                                ens.dissent, decided
                            ),
                        );
                    }
                }

                // Crossings 3 + 4: chaos, caches off then on, same plan.
                let chaos_plan = Arc::new(FaultPlan::chaos(
                    rng::hash_parts(spec.seed, &["chaos", bin, site.name(), mode_tag]),
                    cfg.chaos_rate,
                ));
                let (chaos_rec, _sink) = feam_obs::Recorder::memory();
                let chaos_cfg = PhaseConfig {
                    faults: chaos_plan.clone(),
                    recorder: chaos_rec,
                    ..base_phase_cfg(None)
                };
                let out_chaos = run_target_phase(site, Some(&ub.image), b, &chaos_cfg);
                check.runs += 1;
                let base_exp = realized(&out_base.prediction, &out_base.evaluation);
                let chaos_exp = realized(&out_chaos.prediction, &out_chaos.evaluation);
                if injected_faults(&out_chaos.telemetry) == 0 {
                    if fingerprint(&out_chaos) != fp_base {
                        diverge(
                            &mut check,
                            &format!("chaos-deterministic-{mode_tag}"),
                            bin,
                            site.name(),
                            format!(
                                "zero injected faults but outcome differs: base={fp_base} chaos={}",
                                fingerprint(&out_chaos)
                            ),
                        );
                    }
                } else {
                    for det in ["Isa", "CLibrary"] {
                        let b_label = verdict_label(&base_exp, det);
                        if let Some(c_label) = verdict_label(&chaos_exp, det) {
                            if c_label != "unknown" && Some(c_label) != b_label {
                                diverge(
                                    &mut check,
                                    &format!("chaos-invariant-{mode_tag}"),
                                    bin,
                                    site.name(),
                                    format!(
                                        "{det} flipped {b_label:?} -> {c_label:?} under chaos \
                                         (only moves to unknown are allowed)"
                                    ),
                                );
                            }
                        }
                    }
                }
                let (chaos_rec2, _sink2) = feam_obs::Recorder::memory();
                let chaos_cached_cfg = PhaseConfig {
                    faults: chaos_plan,
                    recorder: chaos_rec2,
                    ..base_phase_cfg(Some(Arc::new(PhaseCaches::new(0))))
                };
                let out_chaos_cached =
                    run_target_phase(site, Some(&ub.image), b, &chaos_cached_cfg);
                check.runs += 1;
                if fingerprint(&out_chaos_cached) != fingerprint(&out_chaos) {
                    diverge(
                        &mut check,
                        &format!("chaos-cache-equivalence-{mode_tag}"),
                        bin,
                        site.name(),
                        format!(
                            "same fault plan, caches flipped the outcome: off={} on={}",
                            fingerprint(&out_chaos),
                            fingerprint(&out_chaos_cached)
                        ),
                    );
                }
            }
        }
    }

    // Crossing 5: the service's ranked plan vs its own point predictions
    // vs the oracle.
    check_service(spec, &uni, &expectations, &mut check);

    // Crossing 6: the sharded fleet vs the oracle, with a node killed
    // mid-crossing — routing and failover must never change an answer.
    check_fleet(spec, &uni, &expectations, &mut check);

    check
}

/// Drive `feam-svc` over the universe: every placement in an all-sites
/// plan must match a point prediction for the same pair, point
/// predictions must match the oracle, and the ranking must be sorted.
fn check_service(
    spec: &UniverseSpec,
    uni: &universe::Universe,
    expectations: &HashMap<(String, String, &'static str), Expectation>,
    check: &mut UniverseCheck,
) {
    // The service consumes its sites by value: materialize a second,
    // identical copy of the world.
    let svc_uni = universe::materialize(spec);
    let svc_cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        edc_ttl: 0,
        result_cache: true,
        caching: true,
        phase_seed: PHASE_SEED,
        recorder: feam_obs::Recorder::disabled(),
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    let mut svc = PredictService::with_sites(svc_cfg, svc_uni.sites);
    for ub in &svc_uni.binaries {
        svc.register_binary(
            &ub.spec.name,
            RegisteredBinary::new(ub.image.clone(), &ub.spec.home_site),
        )
        .expect("pre-start registration of distinct names cannot fail");
    }
    svc.start();

    let site_names: Vec<String> = uni.sites.iter().map(|s| s.name().to_string()).collect();
    for ub in &uni.binaries {
        let bin = &ub.spec.name;
        for mode in [PredictionMode::Basic, PredictionMode::Extended] {
            let mode_tag = match mode {
                PredictionMode::Basic => "basic",
                PredictionMode::Extended => "extended",
            };
            let req = PlanRequest {
                mode,
                ..PlanRequest::all_sites(bin)
            };
            let placement = match plan(&svc, &req) {
                Ok(p) => p,
                Err(e) => {
                    check.divergences.push(Divergence {
                        universe_seed: spec.seed,
                        kind: format!("plan-error-{mode_tag}"),
                        binary: bin.clone(),
                        site: "*".into(),
                        detail: format!("plan request failed: {e:?}"),
                    });
                    continue;
                }
            };
            if placement.sites.len() != site_names.len() {
                check.divergences.push(Divergence {
                    universe_seed: spec.seed,
                    kind: format!("plan-coverage-{mode_tag}"),
                    binary: bin.clone(),
                    site: "*".into(),
                    detail: format!(
                        "all-sites plan returned {} of {} sites",
                        placement.sites.len(),
                        site_names.len()
                    ),
                });
            }
            // Ranking must be sorted under the published comparator.
            for w in placement.sites.windows(2) {
                if rank_cmp(&w[0], &w[1]) == std::cmp::Ordering::Greater {
                    check.divergences.push(Divergence {
                        universe_seed: spec.seed,
                        kind: format!("plan-rank-order-{mode_tag}"),
                        binary: bin.clone(),
                        site: w[1].site.clone(),
                        detail: format!(
                            "placement {} ranks after {} but compares better",
                            w[0].site, w[1].site
                        ),
                    });
                }
            }
            for sp in &placement.sites {
                if sp.error.is_some() {
                    check.divergences.push(Divergence {
                        universe_seed: spec.seed,
                        kind: format!("plan-site-error-{mode_tag}"),
                        binary: bin.clone(),
                        site: sp.site.clone(),
                        detail: format!("fault-free placement errored: {:?}", sp.error),
                    });
                    continue;
                }
                // The same pair as a point prediction: the plan entry and
                // the point answer must agree in every ranked dimension.
                let resp = match svc.predict(&PredictRequest {
                    binary_ref: bin.clone(),
                    target_site: sp.site.clone(),
                    mode,
                    deadline: None,
                }) {
                    Ok(r) => r,
                    Err(e) => {
                        check.divergences.push(Divergence {
                            universe_seed: spec.seed,
                            kind: format!("point-error-{mode_tag}"),
                            binary: bin.clone(),
                            site: sp.site.clone(),
                            detail: format!("point prediction failed: {e:?}"),
                        });
                        continue;
                    }
                };
                check.runs += 1;
                let point = realized(&resp.prediction, &resp.evaluation);
                let plan_labels: Option<Vec<(String, String)>> = sp.prediction.as_ref().map(|p| {
                    p.verdicts
                        .iter()
                        .map(|v| {
                            (
                                v.determinant.name().to_string(),
                                v.verdict.label().to_string(),
                            )
                        })
                        .collect()
                });
                if plan_labels.as_ref() != Some(&point.verdicts)
                    || sp.ready != point.ready
                    || sp.degraded != point.degraded
                    || sp.confidence != point.confidence
                {
                    check.divergences.push(Divergence {
                        universe_seed: spec.seed,
                        kind: format!("plan-point-{mode_tag}"),
                        binary: bin.clone(),
                        site: sp.site.clone(),
                        detail: format!(
                            "plan entry (ready={} degraded={} conf={} verdicts={:?}) \
                             != point prediction {point:?}",
                            sp.ready, sp.degraded, sp.confidence, plan_labels
                        ),
                    });
                }
                // The point prediction vs the oracle. An extended request
                // downgrades to basic when the source phase is impossible;
                // compare against the expectation for the *answered* mode.
                let answered = match resp.prediction.mode {
                    PredictionMode::Basic => "basic",
                    PredictionMode::Extended => "extended",
                };
                let key = (bin.clone(), sp.site.clone(), answered);
                if let Some(expected) = expectations.get(&key) {
                    if &point != expected {
                        check.divergences.push(Divergence {
                            universe_seed: spec.seed,
                            kind: format!("service-oracle-{mode_tag}"),
                            binary: bin.clone(),
                            site: sp.site.clone(),
                            detail: diff(expected, &point),
                        });
                    }
                }
            }
        }
    }
}

/// Drive the sharded fleet over the universe: every request answered by
/// the fleet — routed and failed over — must match the oracle's
/// expectation for the answered mode, exactly as a single node would. One
/// node is killed halfway through the request list and revived at three
/// quarters, so the crossing also covers failover routing and rejoin
/// catch-up.
fn check_fleet(
    spec: &UniverseSpec,
    uni: &universe::Universe,
    expectations: &HashMap<(String, String, &'static str), Expectation>,
    check: &mut UniverseCheck,
) {
    let node_cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        edc_ttl: 0,
        result_cache: true,
        caching: true,
        phase_seed: PHASE_SEED,
        recorder: feam_obs::Recorder::disabled(),
        fault_plan: Some(Arc::new(FaultPlan::none())),
        ..ServiceConfig::default()
    };
    let fleet_cfg = feam_svc::FleetConfig {
        replication: 2,
        recorder: feam_obs::Recorder::disabled(),
        ..feam_svc::FleetConfig::default()
    };
    let mut fleet = feam_svc::Fleet::with_factory(fleet_cfg, 3, |_| {
        PredictService::with_sites(node_cfg, universe::materialize(spec).sites)
    });
    for ub in &uni.binaries {
        fleet
            .register_binary(&ub.spec.name, ub.image.clone(), &ub.spec.home_site)
            .expect("distinct universe binaries register fleet-wide");
    }
    fleet.start();

    let mut requests = Vec::new();
    for ub in &uni.binaries {
        for site in &uni.sites {
            for mode in [PredictionMode::Basic, PredictionMode::Extended] {
                requests.push((ub.spec.name.clone(), site.name().to_string(), mode));
            }
        }
    }
    let kill_at = requests.len() / 2;
    let revive_at = (requests.len() * 3) / 4;

    for (i, (bin, site, mode)) in requests.iter().enumerate() {
        if i == kill_at {
            fleet.kill_node(0);
        } else if i == revive_at {
            fleet.revive_node(0);
        }
        let mode_tag = match mode {
            PredictionMode::Basic => "basic",
            PredictionMode::Extended => "extended",
        };
        let resp = match fleet.predict(&PredictRequest {
            binary_ref: bin.clone(),
            target_site: site.clone(),
            mode: *mode,
            deadline: None,
        }) {
            Ok(r) => r,
            Err(e) => {
                check.divergences.push(Divergence {
                    universe_seed: spec.seed,
                    kind: format!("fleet-error-{mode_tag}"),
                    binary: bin.clone(),
                    site: site.clone(),
                    detail: format!("fleet request failed: {e:?}"),
                });
                continue;
            }
        };
        check.runs += 1;
        let got = realized(&resp.response.prediction, &resp.response.evaluation);
        let answered = match resp.response.prediction.mode {
            PredictionMode::Basic => "basic",
            PredictionMode::Extended => "extended",
        };
        if let Some(expected) = expectations.get(&(bin.clone(), site.clone(), answered)) {
            if &got != expected {
                check.divergences.push(Divergence {
                    universe_seed: spec.seed,
                    kind: format!("fleet-oracle-{mode_tag}"),
                    binary: bin.clone(),
                    site: site.clone(),
                    detail: format!(
                        "served by {} ({} failovers): {}",
                        resp.node,
                        resp.failovers,
                        diff(expected, &got)
                    ),
                });
            }
        }
    }
}

/// Run the full sweep.
pub fn run_sweep(cfg: &ConformConfig) -> ConformReport {
    let mut report = ConformReport::default();
    let mut first_bad: Option<UniverseSpec> = None;
    for i in 0..cfg.universes {
        let useed = rng::hash_parts(cfg.seed, &["universe", &i.to_string()]);
        let spec = universe::generate(useed, cfg.quick);
        let uc = check_universe(&spec, cfg);
        report.universes += 1;
        report.pairs += uc.pairs;
        report.runs += uc.runs;
        if !uc.divergences.is_empty() {
            if first_bad.is_none() {
                first_bad = Some(spec);
            }
            report.divergences.extend(uc.divergences);
            if report.divergences.len() >= cfg.max_divergences {
                break;
            }
        }
    }
    if cfg.shrink {
        if let Some(spec) = first_bad {
            report.shrunk = Some(crate::shrink::shrink(&spec, cfg));
        }
    }
    report
}

/// Check (and if diverging, shrink) the single universe `seed` — the
/// replay entry point printed by the shrinker.
pub fn check_seed(seed: u64, cfg: &ConformConfig) -> ConformReport {
    let spec = universe::generate(seed, cfg.quick);
    let uc = check_universe(&spec, cfg);
    let mut report = ConformReport {
        universes: 1,
        pairs: uc.pairs,
        runs: uc.runs,
        divergences: uc.divergences,
        shrunk: None,
    };
    if cfg.shrink && !report.divergences.is_empty() {
        report.shrunk = Some(crate::shrink::shrink(&spec, cfg));
    }
    report
}
