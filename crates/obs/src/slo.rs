//! Declarative SLOs evaluated as multi-window burn rates.
//!
//! An [`SloSpec`] states an objective ("p99 cached latency ≤ 50ms for
//! 98% of requests", "error rate ≤ 1%") as an *allowed bad fraction*.
//! The **burn rate** over a window is `observed_bad_fraction /
//! allowed_fraction` — burn 1.0 consumes the error budget exactly as
//! fast as allowed, burn 10 consumes it 10× too fast. Following the
//! standard multi-window discipline, each SLO is evaluated over a short
//! window (fast detection, fast recovery) *and* a long window (evidence
//! the problem is sustained):
//!
//! * [`SloState::Page`] — both windows burn at ≥ `page_burn`: the budget
//!   is being destroyed *and* it is not a blip.
//! * [`SloState::Warning`] — the long window burns at ≥ `warn_burn` but
//!   the short window has cooled below `page_burn`: an incident is
//!   ongoing or just ended; budget damage is real but not accelerating.
//! * [`SloState::Ok`] — otherwise.
//!
//! This gives the canonical lifecycle: a fault burst drives short and
//! long high (`Page`), the short window drains first after the burst
//! (`Warning`), and the long window draining completes recovery (`Ok`).

use serde::Serialize;

use crate::window::WindowedRegistry;

/// What a "bad" observation is for an SLO.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SloKind {
    /// Bad = observations of `metric` (a histogram) strictly above
    /// `threshold` (bucket resolution: the threshold rounds up to its
    /// log2 bucket bound). `allowed_fraction` is the tolerated share of
    /// slow requests.
    LatencyBudget {
        metric: String,
        threshold: u64,
        allowed_fraction: f64,
    },
    /// Bad = counter `bad` relative to counter `total`.
    /// `allowed_fraction` is the tolerated bad/total ratio.
    RatioBudget {
        bad: String,
        total: String,
        allowed_fraction: f64,
    },
}

/// One declarative objective with its burn-rate alerting policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloSpec {
    pub name: String,
    pub kind: SloKind,
    /// Short (detection/recovery) window, milliseconds.
    pub short_ms: u64,
    /// Long (evidence) window, milliseconds.
    pub long_ms: u64,
    /// Long-window burn rate at or above which the state is `Warning`.
    pub warn_burn: f64,
    /// Burn rate both windows must reach for `Page`.
    pub page_burn: f64,
}

/// Evaluated SLO health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SloState {
    Ok,
    Warning,
    Page,
}

impl SloState {
    pub fn as_str(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warning => "warning",
            SloState::Page => "page",
        }
    }
}

/// The outcome of evaluating one [`SloSpec`] against a registry.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloEvaluation {
    pub name: String,
    pub state: SloState,
    pub short_burn: f64,
    pub long_burn: f64,
    /// Human-oriented one-liner: the observed bad fraction vs allowance.
    pub detail: String,
}

fn bad_fraction(
    kind: &SloKind,
    reg: &WindowedRegistry,
    now_ms: u64,
    horizon_ms: u64,
) -> (f64, u64) {
    match kind {
        SloKind::LatencyBudget {
            metric, threshold, ..
        } => match reg.histogram(metric, now_ms, horizon_ms) {
            Some(w) if w.count > 0 => (w.count_over(*threshold) as f64 / w.count as f64, w.count),
            _ => (0.0, 0),
        },
        SloKind::RatioBudget { bad, total, .. } => {
            let total_n = reg
                .counter(total, now_ms, horizon_ms)
                .map(|(_, w)| w)
                .unwrap_or(0);
            if total_n == 0 {
                return (0.0, 0);
            }
            let bad_n = reg
                .counter(bad, now_ms, horizon_ms)
                .map(|(_, w)| w)
                .unwrap_or(0);
            (bad_n as f64 / total_n as f64, total_n)
        }
    }
}

fn allowed(kind: &SloKind) -> f64 {
    match kind {
        SloKind::LatencyBudget {
            allowed_fraction, ..
        }
        | SloKind::RatioBudget {
            allowed_fraction, ..
        } => (*allowed_fraction).max(1e-12),
    }
}

/// Evaluate one SLO against the registry at logical time `now_ms`.
pub fn evaluate(spec: &SloSpec, reg: &WindowedRegistry, now_ms: u64) -> SloEvaluation {
    let budget = allowed(&spec.kind);
    let (short_frac, _) = bad_fraction(&spec.kind, reg, now_ms, spec.short_ms);
    let (long_frac, long_n) = bad_fraction(&spec.kind, reg, now_ms, spec.long_ms);
    let short_burn = short_frac / budget;
    let long_burn = long_frac / budget;
    let state = if short_burn >= spec.page_burn && long_burn >= spec.page_burn {
        SloState::Page
    } else if long_burn >= spec.warn_burn {
        SloState::Warning
    } else {
        SloState::Ok
    };
    SloEvaluation {
        name: spec.name.clone(),
        state,
        short_burn,
        long_burn,
        detail: format!(
            "bad {:.3}% of {} over {}s (allowed {:.3}%)",
            long_frac * 100.0,
            long_n,
            spec.long_ms / 1000,
            budget * 100.0
        ),
    }
}

/// Evaluate every SLO; order is preserved.
pub fn evaluate_all(specs: &[SloSpec], reg: &WindowedRegistry, now_ms: u64) -> Vec<SloEvaluation> {
    specs.iter().map(|s| evaluate(s, reg, now_ms)).collect()
}

/// The worst state across evaluations (`Ok` when empty).
pub fn worst_state(evals: &[SloEvaluation]) -> SloState {
    let mut worst = SloState::Ok;
    for e in evals {
        worst = match (worst, e.state) {
            (_, SloState::Page) | (SloState::Page, _) => SloState::Page,
            (_, SloState::Warning) | (SloState::Warning, _) => SloState::Warning,
            _ => SloState::Ok,
        };
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSpec;

    fn ratio_spec() -> SloSpec {
        SloSpec {
            name: "error-rate".to_string(),
            kind: SloKind::RatioBudget {
                bad: "errors".to_string(),
                total: "requests".to_string(),
                allowed_fraction: 0.01,
            },
            short_ms: 5_000,
            long_ms: 30_000,
            warn_burn: 2.0,
            page_burn: 10.0,
        }
    }

    #[test]
    fn burn_rate_lifecycle_ok_warning_page_and_recovery() {
        let reg = WindowedRegistry::new(WindowSpec {
            slots: 60,
            slot_ms: 1000,
        });
        let spec = ratio_spec();

        // Healthy traffic: 100 req/s, no errors.
        for t in 0..5 {
            reg.count("requests", 100, t * 1000);
        }
        assert_eq!(evaluate(&spec, &reg, 4_500).state, SloState::Ok);

        // A light sustained error trickle: ~2.9% over the long window is
        // a ~2.9× burn — above warn (2×), below page (10×) in both
        // windows (short sees 5% = 5×).
        for t in 5..12 {
            reg.count("requests", 100, t * 1000);
            reg.count("errors", 5, t * 1000);
        }
        let eval = evaluate(&spec, &reg, 11_500);
        assert_eq!(eval.state, SloState::Warning);
        assert!(eval.long_burn >= 2.0 && eval.long_burn < 10.0);

        // Full outage: 50% errors → both windows far above 10×.
        for t in 12..20 {
            reg.count("requests", 100, t * 1000);
            reg.count("errors", 50, t * 1000);
        }
        let eval = evaluate(&spec, &reg, 19_500);
        assert_eq!(eval.state, SloState::Page);
        assert!(eval.short_burn >= 10.0 && eval.long_burn >= 10.0);

        // Incident ends; clean traffic resumes. Once the short window
        // has drained the page clears but the long window still
        // remembers the damage → Warning.
        for t in 20..27 {
            reg.count("requests", 100, t * 1000);
        }
        let eval = evaluate(&spec, &reg, 26_500);
        assert_eq!(eval.state, SloState::Warning);
        assert!(eval.short_burn < 10.0);

        // Much later the long window has drained too → Ok.
        for t in 43..50 {
            reg.count("requests", 100, t * 1000);
        }
        let eval = evaluate(&spec, &reg, 49_500);
        assert_eq!(eval.state, SloState::Ok);
    }

    #[test]
    fn latency_budget_counts_bucketed_overage() {
        let reg = WindowedRegistry::new(WindowSpec::default());
        let spec = SloSpec {
            name: "p-latency".to_string(),
            kind: SloKind::LatencyBudget {
                metric: "lat_us".to_string(),
                threshold: 50_000,
                allowed_fraction: 0.02,
            },
            short_ms: 5_000,
            long_ms: 60_000,
            warn_burn: 1.0,
            page_burn: 5.0,
        };
        // 9 fast, 1 very slow → 10% over threshold = 5× burn → Page.
        for _ in 0..9 {
            reg.observe("lat_us", 1000.0, 1000);
        }
        reg.observe("lat_us", 500_000.0, 1000);
        let eval = evaluate(&spec, &reg, 1_500);
        assert_eq!(eval.state, SloState::Page);

        // No traffic at all → vacuously Ok.
        let empty = WindowedRegistry::new(WindowSpec::default());
        assert_eq!(evaluate(&spec, &empty, 1_500).state, SloState::Ok);
    }

    #[test]
    fn worst_state_prefers_page() {
        let mk = |state| SloEvaluation {
            name: "x".to_string(),
            state,
            short_burn: 0.0,
            long_burn: 0.0,
            detail: String::new(),
        };
        assert_eq!(worst_state(&[]), SloState::Ok);
        assert_eq!(
            worst_state(&[mk(SloState::Ok), mk(SloState::Warning)]),
            SloState::Warning
        );
        assert_eq!(
            worst_state(&[mk(SloState::Warning), mk(SloState::Page), mk(SloState::Ok)]),
            SloState::Page
        );
    }
}
